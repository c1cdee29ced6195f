#include "textflag.h"

// func prefetch(p, q unsafe.Pointer, lo, hi, stride uintptr)
TEXT ·prefetch(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	MOVQ q+8(FP), AX
	PREFETCHT0 (AX)
	MOVQ lo+16(FP), AX
	MOVQ hi+24(FP), BX
	MOVQ stride+32(FP), CX
loop:
	CMPQ AX, BX
	JAE last
	PREFETCHT0 (AX)
	ADDQ CX, AX
	JMP loop
last:
	PREFETCHT0 (BX)
	RET
