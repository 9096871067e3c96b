package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"
)

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that still has at least
// ten samples beyond it, that percentile, and the sample count. With fewer
// than eleven samples it returns the maximum.
func tail(xs []float64) (value, percentile float64, n int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n < 11 {
		return s[n-1], 100, n
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), n
}

// digester hashes the timing-free renders of a run's outputs.
type digester struct {
	h hash.Hash
}

func (d *digester) add(b []byte) {
	if d.h == nil {
		d.h = sha256.New()
	}
	d.h.Write(b)
	d.h.Write([]byte{0})
}

func (d *digester) sum() string {
	if d.h == nil {
		return ""
	}
	return hex.EncodeToString(d.h.Sum(nil))[:32]
}

// roundSeed derives the seed of round i from the workload seed, so
// every round of a run draws different flow or campaign seeds.
func roundSeed(seed int64, i int) int64 {
	return rand.New(rand.NewSource(seed*7919 + int64(i))).Int63()
}
