package hash

import (
	"math/rand"
	"testing"

	"caram/internal/bitutil"
)

func TestSelectBitsFindsDiscriminatingBits(t *testing.T) {
	// Keys vary only in bits 3 and 9; every other bit is constant.
	// The greedy chooser must pick exactly those two.
	var keys []bitutil.Ternary
	for v := 0; v < 4; v++ {
		k := bitutil.FromUint64(0xf0f0)
		k = k.WithBit(3, uint(v)&1).WithBit(9, uint(v>>1)&1)
		for i := 0; i < 10; i++ { // repeat so loads matter
			keys = append(keys, bitutil.Exact(k))
		}
	}
	got := SelectBits(keys, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2)
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Errorf("SelectBits = %v, want [3 9]", got)
	}
}

func TestSelectBitsAvoidsDontCarePositions(t *testing.T) {
	// Bit 2 is don't-care in every key (duplication penalty); bits 0 and
	// 1 discriminate. The chooser should prefer 0 and 1.
	var keys []bitutil.Ternary
	for v := 0; v < 4; v++ {
		keys = append(keys, bitutil.NewTernary(
			bitutil.FromUint64(uint64(v)),
			bitutil.FromUint64(0b100),
		))
	}
	got := SelectBits(keys, []int{0, 1, 2}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("SelectBits = %v, want [0 1]", got)
	}
}

func TestSelectBitsEdgeCases(t *testing.T) {
	keys := []bitutil.Ternary{bitutil.Exact(bitutil.FromUint64(1))}
	if got := SelectBits(keys, nil, 3); got != nil {
		t.Errorf("no candidates: got %v", got)
	}
	if got := SelectBits(keys, []int{5}, 0); got != nil {
		t.Errorf("r=0: got %v", got)
	}
	// r larger than candidate count: clamp.
	if got := SelectBits(keys, []int{5, 7}, 10); len(got) != 2 {
		t.Errorf("clamped selection: got %v", got)
	}
}

func TestSelectBitsBeatsNaiveChoice(t *testing.T) {
	// Clustered keys: low 8 bits nearly constant, upper bits random.
	rng := rand.New(rand.NewSource(42))
	keys := make([]bitutil.Ternary, 4096)
	for i := range keys {
		k := rng.Uint64()<<8 | 0x5a
		keys[i] = bitutil.Exact(bitutil.FromUint64(k))
	}
	cands := make([]int, 16)
	for i := range cands {
		cands[i] = i
	}
	chosen := SelectBits(keys, cands, 6)
	naive := []int{0, 1, 2, 3, 4, 5}
	if distributionCost(keys, chosen) > distributionCost(keys, naive) {
		t.Errorf("greedy choice %v no better than naive %v", chosen, naive)
	}
	gen := BitSelect{Positions: chosen}
	loads := make([]int, 1<<len(chosen))
	for _, k := range keys {
		for _, idx := range gen.TernaryIndices(k) {
			loads[idx]++
		}
	}
	maxLoad, mean := 0, float64(len(keys))/float64(len(loads))
	for _, l := range loads {
		maxLoad = max(maxLoad, l)
	}
	if float64(maxLoad) > 3*mean {
		t.Errorf("max load %d far above mean %.1f", maxLoad, mean)
	}
}

func TestDistributionCostCountsDuplicates(t *testing.T) {
	// One ternary key with a don't care in the single selected bit lands
	// in both buckets: cost = 1^2 + 1^2 = 2.
	keys := []bitutil.Ternary{bitutil.NewTernary(bitutil.Vec128{}, bitutil.FromUint64(1))}
	if got := distributionCost(keys, []int{0}); got != 2 {
		t.Errorf("cost = %d, want 2", got)
	}
	// An exact key lands once: cost 1.
	keys = []bitutil.Ternary{bitutil.Exact(bitutil.FromUint64(1))}
	if got := distributionCost(keys, []int{0}); got != 1 {
		t.Errorf("cost = %d, want 1", got)
	}
}
