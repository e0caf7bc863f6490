// Packed integer keys. The radix sort, the packed count (HashGroup) and
// the packed probe (HashJoin) key several INT columns by one uint64, laid
// out here once.
package exec

import (
	"setm/internal/costmodel"
	"setm/internal/tuple"
)

// keyPack bias-packs integer key columns into one uint64, the first
// column most significant: column i contributes v - lo[i] in the bits of
// its range's span, so unsigned order of the packed words is the
// lexicographic order of the columns and equal words are equal keys.
type keyPack struct {
	lo    []int64
	span  []uint64 // hi - lo: the largest offset a column's field holds
	width []uint
	shift []uint // where each column's field starts
	max   uint64 // the key of every column at hi: the key space is max+1 words
	bits  uint
}

// newKeyPack lays out columns with the given bounds, or reports false when
// their widths sum past 64 bits.
func newKeyPack(ranges []tuple.Range) (keyPack, bool) {
	n := len(ranges)
	p := keyPack{lo: make([]int64, n), span: make([]uint64, n), width: make([]uint, n), shift: make([]uint, n)}
	for i := n - 1; i >= 0; i-- {
		r := ranges[i]
		p.lo[i], p.span[i], p.width[i], p.shift[i] = r.Lo, r.Span(), r.Bits(), p.bits
		p.bits += p.width[i]
	}
	if p.bits > 64 {
		return p, false
	}
	for i := range ranges {
		p.max |= p.span[i] << p.shift[i]
	}
	return p, true
}

// space is the number of keys the layout can produce, or 0 when that is
// 2^64 (no table can address it).
func (p *keyPack) space() uint64 { return p.max + 1 }

// pack sets keys[r] to the packed key of b's logical row r on cols, for
// every r < len(keys). A value outside its column's bound is an error when
// miss is nil (pack reports false at once); otherwise it sets miss[r],
// and keys[r] is then meaningless.
func (p *keyPack) pack(b *tuple.Batch, cols []int, keys []uint64, miss []bool) bool {
	clear(keys)
	sel := b.Sel()
	for i, c := range cols {
		v, lo, span, sh := b.Cols[c].I, uint64(p.lo[i]), p.span[i], p.shift[i]
		if sel == nil {
			v = v[:len(keys)]
		}
		for r := range keys {
			var x int64
			if sel == nil {
				x = v[r]
			} else {
				x = v[sel[r]]
			}
			d := uint64(x) - lo
			if d > span {
				if miss == nil {
					return false
				}
				miss[r], d = true, 0
			}
			keys[r] |= d << sh
		}
	}
	return true
}

// unpack appends column i's value of every key to dst.
func (p *keyPack) unpack(keys []uint64, i int, dst []int64) []int64 {
	lo, sh, mask := uint64(p.lo[i]), p.shift[i], uint64(1)<<p.width[i]-1
	for _, k := range keys {
		dst = append(dst, int64(k>>sh&mask+lo))
	}
	return dst
}

// columnRanges scans the first n rows of b's dense columns cols for their
// exact bounds.
func columnRanges(b *tuple.Batch, cols []int, n int) []tuple.Range {
	out := make([]tuple.Range, len(cols))
	for i, c := range cols {
		r := tuple.EmptyRange
		for _, v := range b.Cols[c].I[:n] {
			r.Lo, r.Hi = min(r.Lo, v), max(r.Hi, v)
		}
		out[i] = r
	}
	return out
}

// Count kernels (HashGroup.KernelFor).
const (
	CountTable = "table" // a direct-address table over packed keys
	CountSort  = "sort"  // a radix sort of packed keys and a run count
	CountHash  = "hash"  // the generic hash table on the group columns
)

// countKernel is the count rule: a packed key counts on a direct-address
// table when costmodel.CountTableFits admits its key space against the
// rows counted (and no cell can overflow), else by sorting.
func countKernel(p keyPack, rows int64) string {
	if space := p.space(); space != 0 && space <= 1<<40 && rows < 1<<32 &&
		costmodel.CountTableFits(int64(space)*costmodel.CountCellBytes, rows) {
		return CountTable
	}
	return CountSort
}

// Probe kernels (HashJoin.KernelFor, HashJoin.Kernel).
const (
	ProbeDirect  = "direct"  // a head table addressed by the packed key
	ProbeHash    = "hash"    // an open-addressing table of packed keys
	ProbeSemi    = "semi"    // unique build keys, no build column read: probe rows pass under a selection vector
	ProbeGeneric = "generic" // the generic hash table on the key columns
)

// directMinCells is the key space a direct head table may always take;
// beyond it the table may hold at most directCellsPerRow cells a build row.
const (
	directMinCells    = 1 << 12
	directCellsPerRow = 4
)

// probeKernel is the probe rule: a packed build key addresses a head
// table directly when its key space is small against the build, else
// hashes.
func probeKernel(p keyPack, buildRows int64) string {
	if space := p.space(); space != 0 && space <= max(directMinCells, directCellsPerRow*uint64(buildRows)) {
		return ProbeDirect
	}
	return ProbeHash
}
