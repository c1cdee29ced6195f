package swsearch

import "testing"

func TestCounterZero(t *testing.T) {
	if (Counter{}).AMAL() != 0 {
		t.Error("empty counter AMAL")
	}
}
