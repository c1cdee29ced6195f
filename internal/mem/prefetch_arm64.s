#include "textflag.h"

// func prefetch(p, q unsafe.Pointer, lo, hi, stride uintptr)
TEXT ·prefetch(SB), NOSPLIT, $0-40
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	MOVD q+8(FP), R0
	PRFM (R0), PLDL1KEEP
	MOVD lo+16(FP), R0
	MOVD hi+24(FP), R1
	MOVD stride+32(FP), R2
loop:
	CMP R1, R0
	BHS last
	PRFM (R0), PLDL1KEEP
	ADD R2, R0
	B loop
last:
	PRFM (R1), PLDL1KEEP
	RET
