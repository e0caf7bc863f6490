// The count kernels over packed keys, shared by the native miner's count
// step and the SQL engine's packed GROUP BY: a direct-address table read
// out in index order, or a radix sort and a run count. Both emit the
// distinct keys ascending with their counts, so a caller never sorts the
// groups it emits.
package xsort

// Counts is a count relation over packed keys: ascending keys with their
// counts in parallel slices.
type Counts struct {
	Keys   []uint64
	Counts []int64
}

// KeysSorted reports whether keys are in ascending order.
func KeysSorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// CountRuns scans ascending keys and appends one (key, count) per run
// meeting minSup to dst — the paper's sequential count scan as an
// integer-equality loop.
func CountRuns(keys []uint64, minSup int64, dst Counts) Counts {
	n := len(keys)
	i := 0
	for i < n {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		if int64(j-i) >= minSup {
			dst.Keys = append(dst.Keys, keys[i])
			dst.Counts = append(dst.Counts, int64(j-i))
		}
		i = j
	}
	return dst
}

// EmitCountTable is the table kernel's read-out: cells scanned in index
// order are keys in ascending order, so appending every (key, count >=
// minSup) to dst yields exactly what sorting and run-counting the same
// keys would.
func EmitCountTable(tab []uint32, minSup int64, dst Counts) Counts {
	for key, c := range tab {
		if c != 0 && int64(c) >= minSup {
			dst.Keys = append(dst.Keys, uint64(key))
			dst.Counts = append(dst.Counts, int64(c))
		}
	}
	return dst
}

// SortCountKeys is the sort kernel over a key buffer the caller owns: a
// sortedness pre-scan (counted in *skips when it spares the sort), a radix
// sort through *tmp when needed, then the run count.
func SortCountKeys(keys []uint64, tmp *[]uint64, minSup int64, dst Counts, skips *int64) Counts {
	if KeysSorted(keys) {
		*skips++
	} else {
		if cap(*tmp) < len(keys) {
			*tmp = make([]uint64, len(keys))
		}
		RadixSortU64(keys, (*tmp)[:len(keys)])
	}
	return CountRuns(keys, minSup, dst)
}
