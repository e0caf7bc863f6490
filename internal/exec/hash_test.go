package exec

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestHashJoinBasic(t *testing.T) {
	left := mem("tid,item", []int64{10, 1}, []int64{10, 2}, []int64{20, 1})
	right := mem("tid,item",
		[]int64{10, 1}, []int64{10, 2}, []int64{10, 3}, []int64{20, 1}, []int64{20, 4})
	j := NewHashJoin(left, right, []int{0}, []int{0})
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// Two tid-10 rows meet three, one tid-20 row meets two.
	if len(got) != 8 {
		t.Fatalf("HashJoin produced %d rows: %v", len(got), got)
	}
}

func TestHashJoinMatchesMergeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		var lrows, rrows [][]int64
		for i := 0; i < rng.Intn(60); i++ {
			lrows = append(lrows, []int64{rng.Int63n(8), rng.Int63n(5)})
		}
		for i := 0; i < rng.Intn(60); i++ {
			rrows = append(rrows, []int64{rng.Int63n(8), rng.Int63n(5)})
		}
		canon := func(rows [][]int64) {
			sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
		}
		canon(lrows)
		canon(rrows)

		hj := NewHashJoin(mem("k,v", lrows...), mem("k,v", rrows...), []int{0}, []int{0})
		hjRows, err := Drain(hj)
		if err != nil {
			t.Fatal(err)
		}
		mj := NewMergeJoin(mem("k,v", lrows...), mem("k,v", rrows...), []int{0}, []int{0})
		mjRows, err := Drain(mj)
		if err != nil {
			t.Fatal(err)
		}
		if len(hjRows) != len(mjRows) {
			t.Fatalf("trial %d: hash=%d merge=%d", trial, len(hjRows), len(mjRows))
		}
		canon(hjRows)
		canon(mjRows)
		for i := range hjRows {
			if !slices.Equal(hjRows[i], mjRows[i]) {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, hjRows[i], mjRows[i])
			}
		}
	}
}

func TestHashJoinEmptyInputs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		left, right [][]int64
	}{
		{"both empty", nil, nil},
		{"left empty", nil, [][]int64{{1}}},
		{"right empty", [][]int64{{1}}, nil},
	} {
		j := NewHashJoin(mem("k", tc.left...), mem("k", tc.right...), []int{0}, []int{0})
		got, err := Drain(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: got %v", tc.name, got)
		}
	}
}
