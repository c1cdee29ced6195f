//go:build !amd64 && !arm64

package mem

import "unsafe"

// Prefetch is a no-op where no prefetch instruction is wired in.
func Prefetch(p unsafe.Pointer) {}
