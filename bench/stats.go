package main

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"time"

	"setm/internal/core"
)

// samples is a set of per-op wall times in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the middle sample (mean of the two middle ones for an
// even count), or 0 for no samples.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sorted(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is the
// rule the benchmark contract measures run-to-run spread with. Fewer than
// two values have no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := sorted(v)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and that percentile. With too few samples for the rule to
// land above the median it degrades to the median (percentile 50), so a
// reported tail is never below the reported median.
func tail(v []float64) (value, pct float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	s := sorted(v)
	idx := n - 11 // ten samples lie beyond s[idx]
	if idx < n/2 {
		return median(v), 50
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// digestCounts is the FNV-64a fingerprint of a mining result's count
// relations — every pattern's items and support count, in C_1..C_k order —
// that each op is checked against.
func digestCounts(counts [][]core.ItemsetCount) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, ck := range counts {
		put(int64(len(ck)))
		for _, ic := range ck {
			for _, it := range ic.Items {
				put(it)
			}
			put(ic.Count)
		}
	}
	return h.Sum64()
}
