package exec

import (
	"errors"
	"io"
	"testing"

	"setm/internal/storage"
	"setm/internal/tuple"
)

// failingOp is an input whose Open (and anything after it) fails; it
// counts its Open and Close calls so a test can see it was not left open.
type failingOp struct {
	schema        *tuple.Schema
	opens, closes int
}

var errBoom = errors.New("boom")

func (f *failingOp) Schema() *tuple.Schema            { return f.schema }
func (f *failingOp) Open() error                      { f.opens++; return errBoom }
func (f *failingOp) NextBatch() (*tuple.Batch, error) { return nil, errBoom }
func (f *failingOp) Close() error                     { f.closes++; return nil }

// opCase builds one operator over inputs made by src; the contract tests
// run every operator of the package through the same checks.
type opCase struct {
	name  string
	build func(src func() Operator) Operator
	leaf  bool // no input: src is unused
}

// contractCases returns a case per operator with the multi-page scan that
// feeds them, its schema and the pool it lives in.
func contractCases(t *testing.T) (cases []opCase, scan func() Operator, schema *tuple.Schema, pool *storage.Pool) {
	schema = tuple.IntSchema("trans_id", "item")
	rows := keyRuns(3000, 21) // ascending on trans_id, a dozen pages
	pool = storage.NewPool(storage.NewMemStore(), 64)
	f := heapFile(t, pool, schema, rows)
	scan = func() Operator { return NewHeapScan(f) }
	count := []AggSpec{{Kind: AggCount, Name: "cnt"}}
	cases = []opCase{
		{name: "HeapScan", leaf: true, build: func(func() Operator) Operator { return NewHeapScan(f) }},
		{name: "MemScan", leaf: true, build: func(func() Operator) Operator { return NewMemScan(schema, rows) }},
		{name: "Rename", build: func(src func() Operator) Operator { return NewRename(src(), tuple.IntSchema("t", "i")) }},
		{name: "Filter", build: func(src func() Operator) Operator {
			return NewFilter(src(), []VecPredicate{
				rowPred(func(tp []int64) bool { return tp[1]%2 == 0 }),
				rowPred(func(tp []int64) bool { return tp[0]%3 != 0 }),
			})
		}},
		{name: "Project", build: func(src func() Operator) Operator {
			return NewProject(src(), tuple.IntSchema("item", "one"), []Expr{ColExpr(1), constExpr(1)})
		}},
		{name: "Sort", build: func(src func() Operator) Operator {
			return NewSortKeys(src(), []SortKey{{Col: 1}, {Col: 0, Desc: true}}, nil, 0)
		}},
		{name: "Sort/external", build: func(src func() Operator) Operator {
			return NewSortKeys(src(), []SortKey{{Col: 1}}, pool, 4096)
		}},
		{name: "SortGroup", build: func(src func() Operator) Operator { return NewSortGroup(src(), []int{0}, count) }},
		{name: "MergeJoin", build: func(src func() Operator) Operator {
			m := NewMergeJoin(scan(), src(), []int{0}, []int{0})
			m.SetVecResidualGT(1, 1)
			return m
		}},
		{name: "HashJoin", build: func(src func() Operator) Operator {
			return NewHashJoin(scan(), src(), []int{0}, []int{0})
		}},
		{name: "HashGroup", build: func(src func() Operator) Operator { return NewHashGroup(src(), []int{1}, count) }},
	}

	return cases, scan, schema, pool
}

// pullAll opens op and pulls it to io.EOF, returning its rows and leaving
// it open.
func pullAll(t *testing.T, op Operator) [][]int64 {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatal("NextBatch returned an empty batch")
		}
		rows = append(rows, batchRows(b)...)
	}
}

// batchRows returns b's logical rows, read through its selection.
func batchRows(b *tuple.Batch) [][]int64 {
	rows := make([][]int64, b.Len())
	for i := range rows {
		rows[i] = make([]int64, len(b.Cols))
		for c := range b.Cols {
			rows[i][c] = b.Cols[c].I[b.RowIdx(i)]
		}
	}
	return rows
}

// TestOperatorEOFAfterExhaustion: once an operator has returned io.EOF,
// every further NextBatch returns io.EOF again.
func TestOperatorEOFAfterExhaustion(t *testing.T) {
	cases, scan, _, _ := contractCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.build(scan)
			if rows := pullAll(t, op); len(rows) == 0 {
				t.Fatal("case produces no rows; it checks nothing")
			}
			for i := 0; i < 3; i++ {
				if _, err := op.NextBatch(); err != io.EOF {
					t.Fatalf("NextBatch call %d after EOF: %v", i+1, err)
				}
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOperatorContract holds every operator to the rest of the one pull
// contract: a second and third Open–drain–Close of the same instance yield
// the same rows, Drain sees exactly the rows NextBatch produced, and Close
// is safe after a failed Open.
func TestOperatorContract(t *testing.T) {
	cases, scan, schema, pool := contractCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.build(scan)
			viaBatches := pullAll(t, op)
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}

			// The same instance again, through Drain and through DrainBatches.
			requireSameRows(t, "Drain vs NextBatch", drainRows(t, op), viaBatches)
			requireSameRows(t, "second Drain", drainRows(t, op), viaBatches)
			batches, err := DrainBatches(op)
			if err != nil {
				t.Fatal(err)
			}
			var flat [][]int64
			for _, b := range batches {
				flat = append(flat, batchRows(b)...)
			}
			requireSameRows(t, "DrainBatches flattened vs Drain", flat, viaBatches)
			if n := pool.PinnedFrames(); n != 0 {
				t.Errorf("%d frames pinned after Close", n)
			}

			// Close after a failed Open. A leaf's Open cannot fail: closing
			// it unopened is the nearest thing.
			if tc.leaf {
				if err := tc.build(nil).Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			var inputs []*failingOp
			bad := tc.build(func() Operator {
				in := &failingOp{schema: schema}
				inputs = append(inputs, in)
				return in
			})
			err = bad.Open()
			if err == nil {
				_, err = bad.NextBatch()
			}
			if !errors.Is(err, errBoom) {
				t.Fatalf("failing input surfaced as %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := bad.Close(); err != nil {
					t.Fatalf("Close %d after a failed Open: %v", i+1, err)
				}
			}
			opened := 0
			for _, in := range inputs {
				opened += in.opens
				if in.closes < in.opens {
					t.Error("an input whose Open failed was never closed")
				}
			}
			if opened == 0 {
				t.Fatal("the failing input was never opened")
			}
			if n := pool.PinnedFrames(); n != 0 {
				t.Errorf("%d frames pinned after a failed Open", n)
			}
		})
	}
}
