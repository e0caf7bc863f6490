package core

import (
	"slices"
	"sort"
)

// relation is a flat R_k relation: rows of stride fields stored
// contiguously in row-major order, each row laid out as
// [trans_id, item_1, ..., item_k] (stride = k+1). Keeping every tuple in
// one backing array makes the SETM kernels — sort, merge-scan extension,
// count scan, support filter — run over contiguous memory with near-zero
// per-row allocations, unlike the pointer-per-row [][]int64 representation
// it replaced.
type relation struct {
	stride int
	data   []int64
}

// rows returns the tuple count.
func (r relation) rows() int { return len(r.data) / r.stride }

// row returns the i-th tuple [trans_id, item_1..item_k] as a view into the
// backing array.
func (r relation) row(i int) []int64 { return r.data[i*r.stride : (i+1)*r.stride] }

// items returns the item columns of the i-th tuple (trans_id stripped).
func (r relation) items(i int) []int64 {
	off := i * r.stride
	return r.data[off+1 : off+r.stride]
}

// tid returns the trans_id of the i-th tuple.
func (r relation) tid(i int) int64 { return r.data[i*r.stride] }

// slice returns the sub-relation covering rows [lo, hi).
func (r relation) slice(lo, hi int) relation {
	return relation{stride: r.stride, data: r.data[lo*r.stride : hi*r.stride]}
}

// clone returns a deep copy sharing nothing with r.
func (r relation) clone() relation {
	out := relation{stride: r.stride, data: make([]int64, len(r.data))}
	copy(out.data, r.data)
	return out
}

// salesRelation builds R_1 = SALES(trans_id, item) as a flat relation,
// deduplicating items within each transaction and sorting globally by
// (trans_id, item) — the normalized relation the paper stores. It is the
// flat equivalent of Dataset.SalesRows.
func salesRelation(d *Dataset) relation {
	total := 0
	for _, tx := range d.Transactions {
		total += len(tx.Items)
	}
	r := relation{stride: 2, data: make([]int64, 0, 2*total)}
	var scratch []int64
	for _, tx := range d.Transactions {
		scratch = append(scratch[:0], tx.Items...)
		slices.Sort(scratch)
		prev := int64(0)
		for i, it := range scratch {
			if i > 0 && it == prev {
				continue
			}
			prev = it
			r.data = append(r.data, tx.ID, it)
		}
	}
	sortRelation(r, 0)
	return r
}

// relSorter sorts a relation's rows lexicographically on columns
// [from, stride). It allocates only its one scratch row.
type relSorter struct {
	rel  relation
	from int
	tmp  []int64
}

func (s *relSorter) Len() int { return s.rel.rows() }

func (s *relSorter) Less(i, j int) bool {
	st := s.rel.stride
	a := s.rel.data[i*st : i*st+st]
	b := s.rel.data[j*st : j*st+st]
	for c := s.from; c < st; c++ {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}

func (s *relSorter) Swap(i, j int) {
	st := s.rel.stride
	a := s.rel.data[i*st : i*st+st]
	b := s.rel.data[j*st : j*st+st]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

// sortRelation orders rel's rows lexicographically on columns
// [fromCol, stride): fromCol 0 is the paper's (trans_id, item_1..item_k)
// order, fromCol 1 the (item_1..item_k) order used before counting.
// A linear pre-scan skips the sort outright when rows are already
// ordered (the common case: extension and filtering both preserve
// order), reported as true so steppers can tally the skip in
// IterationStat. Trans_ids and items span small ranges in practice, so
// the sorting path is a stable LSD counting sort — one linear pass per
// key column over the contiguous backing array; degenerate value ranges
// fall back to comparison sort.
func sortRelation(rel relation, fromCol int) bool {
	if rel.rows() < 2 {
		return false
	}
	if relationSorted(rel, fromCol) {
		return true
	}
	if countingSortRelation(rel, fromCol) {
		return false
	}
	sort.Sort(&relSorter{rel: rel, from: fromCol, tmp: make([]int64, rel.stride)})
	return false
}

// relationSorted reports whether rel's rows are already ordered on
// columns [fromCol, stride) — the sortedness pre-scan.
func relationSorted(rel relation, fromCol int) bool {
	n, st := rel.rows(), rel.stride
	for i := 1; i < n; i++ {
		a := rel.data[(i-1)*st : i*st]
		b := rel.data[i*st : (i+1)*st]
		for c := fromCol; c < st; c++ {
			if a[c] < b[c] {
				break
			}
			if a[c] > b[c] {
				return false
			}
		}
	}
	return true
}

// maxCountingRange bounds the per-column value range (and so the bucket
// array) the counting sort will accept before falling back.
const maxCountingRange = 1 << 21

// countingSortRelation sorts rel on columns [fromCol, stride) with a
// stable least-significant-column counting sort, ping-ponging rows
// between the backing array and one scratch buffer. It reports false —
// leaving rel untouched — when some key column spans too wide a value
// range for bucket counting to pay off.
func countingSortRelation(rel relation, fromCol int) bool {
	n, st := rel.rows(), rel.stride
	lo := make([]int64, st)
	hi := make([]int64, st)
	for c := fromCol; c < st; c++ {
		lo[c], hi[c] = rel.data[c], rel.data[c]
	}
	for i := 1; i < n; i++ {
		r := rel.data[i*st : i*st+st]
		for c := fromCol; c < st; c++ {
			if v := r[c]; v < lo[c] {
				lo[c] = v
			} else if v > hi[c] {
				hi[c] = v
			}
		}
	}
	maxRange := 0
	for c := fromCol; c < st; c++ {
		span := uint64(hi[c]) - uint64(lo[c])
		if span >= maxCountingRange {
			return false
		}
		if int(span)+1 > maxRange {
			maxRange = int(span) + 1
		}
	}

	src := rel.data
	dst := make([]int64, len(src))
	start := make([]int, maxRange)
	for c := st - 1; c >= fromCol; c-- {
		base := lo[c]
		buckets := start[:int(hi[c]-base)+1]
		clear(buckets)
		for i := 0; i < n; i++ {
			buckets[src[i*st+c]-base]++
		}
		pos := 0
		for b, cnt := range buckets {
			buckets[b] = pos
			pos += cnt
		}
		for i := 0; i < n; i++ {
			v := src[i*st+c] - base
			copy(dst[buckets[v]*st:], src[i*st:i*st+st])
			buckets[v]++
		}
		src, dst = dst, src
	}
	if (st-fromCol)%2 == 1 {
		copy(rel.data, src)
	}
	return true
}

// extendRelation is the merge-scan join of R_{k-1} with R_1 (Figure 4's
// extension step): both inputs sorted by trans_id; within each transaction
// every pattern row is extended by the sale items exceeding its last item.
// The output inherits (trans_id, item_1..item_k) order from its inputs.
func extendRelation(rk, sales relation) relation {
	out := relation{stride: rk.stride + 1}
	nr, ns := rk.rows(), sales.rows()
	if nr == 0 || ns == 0 {
		return out
	}
	out.data = make([]int64, 0, len(rk.data))
	i, j := 0, 0
	for i < nr && j < ns {
		tid := rk.tid(i)
		switch {
		case sales.tid(j) < tid:
			j++
		case sales.tid(j) > tid:
			i++
		default:
			iEnd := i
			for iEnd < nr && rk.tid(iEnd) == tid {
				iEnd++
			}
			jEnd := j
			for jEnd < ns && sales.tid(jEnd) == tid {
				jEnd++
			}
			for p := i; p < iEnd; p++ {
				prow := rk.row(p)
				last := prow[rk.stride-1]
				for q := j; q < jEnd; q++ {
					if it := sales.data[q*sales.stride+1]; it > last {
						out.data = append(out.data, prow...)
						out.data = append(out.data, it)
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out
}

// countItemRuns scans a relation sorted on its item columns and
// returns the patterns meeting minSup — the paper's "simple sequential
// scan" producing C_k. Allocates only for patterns that survive.
func countItemRuns(sorted relation, minSup int64) []ItemsetCount {
	k := sorted.stride - 1
	n := sorted.rows()
	var out []ItemsetCount
	i := 0
	for i < n {
		j := i + 1
		for j < n && compareItems(sorted.items(i), sorted.items(j)) == 0 {
			j++
		}
		if int64(j-i) >= minSup {
			items := make([]Item, k)
			copy(items, sorted.items(i))
			out = append(out, ItemsetCount{Items: items, Count: int64(j - i)})
		}
		i = j
	}
	return out
}

// patternSupported reports whether items occurs in the lexicographically
// sorted count relation ck — the "simple table look-up on relation C_k"
// of the paper's filter step, as an allocation-free binary search.
func patternSupported(ck []ItemsetCount, items []int64) bool {
	lo := searchCounts(ck, items)
	return lo < len(ck) && compareItems(ck[lo].Items, items) == 0
}

// filterRelation keeps the rows of R'_k whose pattern appears in C_k,
// sorted by (trans_id, items) for the next iteration's merge-scan. The
// second return is the number of sorts the pre-scan skipped (filtering
// preserves row order, so the re-sort is usually unnecessary).
func filterRelation(rPrime relation, ck []ItemsetCount) (relation, int64) {
	out := relation{stride: rPrime.stride}
	if len(ck) == 0 || rPrime.rows() == 0 {
		return out, 0
	}
	n := rPrime.rows()
	for i := 0; i < n; i++ {
		if patternSupported(ck, rPrime.items(i)) {
			out.data = append(out.data, rPrime.row(i)...)
		}
	}
	var skips int64
	if sortRelation(out, 0) {
		skips++
	}
	return out, skips
}
