package workload

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRand(9)
	z := NewZipf(rng, 1.5, 1000)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		r := z.Rank()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must dominate and the tail must be light.
	if counts[0] < draws/10 {
		t.Errorf("rank 0 drawn %d times, expected heavy head", counts[0])
	}
	if counts[0] <= counts[500] {
		t.Error("head not heavier than tail")
	}
}

func TestZipfClamping(t *testing.T) {
	rng := NewRand(1)
	z := NewZipf(rng, 0.5, 0) // s below 1, n below 1: clamped
	if r := z.Rank(); r != 0 {
		t.Errorf("single-rank Zipf drew %d", r)
	}
}

func TestWeights(t *testing.T) {
	w := Weights(1.0, 4)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %f", sum)
	}
	for k := 1; k < len(w); k++ {
		if w[k] > w[k-1] {
			t.Errorf("weights not decreasing at %d", k)
		}
	}
	// s=1: w[0]/w[1] = 2.
	if math.Abs(w[0]/w[1]-2) > 1e-9 {
		t.Errorf("w0/w1 = %f", w[0]/w[1])
	}
}

func TestShuffleDeterministic(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ys := append([]int(nil), xs...)
	Shuffle(NewRand(7), xs)
	Shuffle(NewRand(7), ys)
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatal("same-seed shuffles diverged")
		}
	}
	// Contents preserved.
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Error("shuffle lost elements")
	}
}
