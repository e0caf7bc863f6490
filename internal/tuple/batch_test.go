package tuple

import (
	"reflect"
	"testing"
)

func TestBatchAppendRowIdxAndValue(t *testing.T) {
	src := ints([]int64{0, 0}, []int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40})
	b := NewBatch(src.Schema())
	for i := range src.Len() {
		b.AppendRow(src, i)
	}
	if b.Len() != 5 || b.NumPhysical() != 5 {
		t.Fatalf("Len = %d phys = %d", b.Len(), b.NumPhysical())
	}
	if b.Cols[0].I[3] != 3 || b.Cols[1].I[3] != 30 {
		t.Errorf("row 3 = (%d, %d)", b.Cols[0].I[3], b.Cols[1].I[3])
	}
	b.SetSel([]int32{4, 2})
	if b.RowIdx(1) != 2 || b.Cols[1].I[b.RowIdx(1)] != 20 {
		t.Errorf("selected row 1 = %d", b.RowIdx(1))
	}
}

func TestBatchSelectionCompactAndClone(t *testing.T) {
	s := IntSchema("a", "b")
	b := NewBatch(s)
	for i := int64(0); i < 8; i++ {
		b.Cols[0].I = append(b.Cols[0].I, i)
		b.Cols[1].I = append(b.Cols[1].I, i*10)
		b.BumpRow()
	}
	b.SetSel([]int32{1, 3, 5})
	if b.Len() != 3 || b.RowIdx(2) != 5 {
		t.Fatalf("selected Len = %d, RowIdx(2) = %d", b.Len(), b.RowIdx(2))
	}
	// Clone compacts: a dense copy of the selected rows only.
	clone := b.Clone()
	if clone.Sel() != nil || clone.Len() != 3 || clone.NumPhysical() != 3 {
		t.Fatalf("clone: sel=%v len=%d phys=%d", clone.Sel(), clone.Len(), clone.NumPhysical())
	}
	for i, want := range []int64{1, 3, 5} {
		if clone.Cols[0].I[i] != want || clone.Cols[1].I[i] != want*10 {
			t.Errorf("clone row %d = (%d, %d), want (%d, %d)", i, clone.Cols[0].I[i], clone.Cols[1].I[i], want, want*10)
		}
	}
	b.Cols[0].I[1] = -1
	if clone.Cols[0].I[0] != 1 {
		t.Error("clone shares storage with its source")
	}
}

// TestBatchEncodedRoundTrip: encoding reads through the selection vector,
// and a run written at an offset of the block decodes from that offset.
func TestBatchEncodedRoundTrip(t *testing.T) {
	src := NewBatch(IntSchema("a", "b"))
	for i := int64(0); i < 6; i++ {
		src.Cols[0].I = append(src.Cols[0].I, i)
		src.Cols[1].I = append(src.Cols[1].I, -i)
		src.BumpRow()
	}
	src.SetSel([]int32{5, 1, 4})
	const stride = 8
	block := make([]byte, 8*stride*2)
	// Rows 1..2 of the selection land in slots 3..4.
	if err := src.PutIntColumns(block[8*3:], stride, 1, 2, nil); err != nil {
		t.Fatal(err)
	}
	dst := NewBatch(src.Schema())
	if err := dst.AppendIntColumns(block[8*3:], stride, 2); err != nil {
		t.Fatal(err)
	}
	if want := ints([]int64{1, -1}, []int64{4, -4}); !reflect.DeepEqual(dst.Cols, want.Cols) {
		t.Errorf("decoded %v, want %v", dst.Cols, want.Cols)
	}
}

func TestBatchProjectAndWithSchema(t *testing.T) {
	s := IntSchema("a", "b", "c")
	b := NewBatch(s)
	for i := int64(0); i < 4; i++ {
		b.Cols[0].I = append(b.Cols[0].I, i)
		b.Cols[1].I = append(b.Cols[1].I, i*2)
		b.Cols[2].I = append(b.Cols[2].I, i*3)
		b.BumpRow()
	}
	b.SetSel([]int32{1, 3})
	proj := b.View(&Batch{}, IntSchema("c", "a"), []ColVec{b.Cols[2], b.Cols[0]})
	if proj.Len() != 2 {
		t.Fatalf("projected Len = %d", proj.Len())
	}
	if p := proj.RowIdx(1); proj.Cols[0].I[p] != 9 || proj.Cols[1].I[p] != 3 {
		t.Errorf("proj row 1 = (%d, %d), want (9, 3)", proj.Cols[0].I[p], proj.Cols[1].I[p])
	}
	proj.SetSel([]int32{0})
	if b.Len() != 2 {
		t.Error("a view's selection reached the batch it views")
	}
	renamed := b.View(&Batch{}, IntSchema("x", "y", "z"), b.Cols)
	if renamed.Schema().Cols[0].Name != "x" || renamed.Len() != 2 {
		t.Errorf("renamed view = %v len %d", renamed.Schema(), renamed.Len())
	}
}

func TestBatchCompareRows(t *testing.T) {
	s := IntSchema("a", "b")
	b := NewBatch(s)
	for _, r := range [][2]int64{{1, 5}, {1, 7}, {2, 1}} {
		b.Cols[0].I = append(b.Cols[0].I, r[0])
		b.Cols[1].I = append(b.Cols[1].I, r[1])
		b.BumpRow()
	}
	if c := b.CompareRows(0, b, 1, []int{0}, []int{0}, nil); c != 0 {
		t.Errorf("equal keys compare = %d", c)
	}
	if c := b.CompareRows(0, b, 1, []int{0, 1}, []int{0, 1}, nil); c >= 0 {
		t.Errorf("(1,5) vs (1,7) = %d", c)
	}
	if c := b.CompareRows(2, b, 0, []int{0}, []int{0}, []bool{true}); c >= 0 {
		t.Errorf("desc compare = %d", c)
	}
}
