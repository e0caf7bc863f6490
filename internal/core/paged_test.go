package core

import (
	"errors"
	"path/filepath"
	"testing"

	"setm/internal/storage"
)

func TestMinePagedOnRealFile(t *testing.T) {
	// The paged driver against an actual on-disk page file: the same C_k
	// must come out, and pages really hit the filesystem. The dataset is
	// big enough — and the budget small enough — that the packed pipeline
	// genuinely spills (a budget-fitting run stays in RAM by design and
	// would touch no pages at all).
	path := filepath.Join(t.TempDir(), "setm.db")
	fs, err := storage.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	d := faultDataset()
	opts := Options{MinSupportFrac: 0.05, MemoryBudget: 16 << 10}
	res, err := MinePaged(d, opts, PagedConfig{Store: fs, PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumPages() == 0 {
		t.Error("no pages written to the file store")
	}
	want, err := MineMemory(d, Options{MinSupportFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "real-file", want, res.Result)

	// The tiny paper example fits any budget: it must stay entirely in
	// RAM and perform no page I/O at all.
	small, err := MinePaged(PaperExample(), paperOpts, PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkPaperExample(t, small.Result)
	if small.IO.Accesses() != 0 {
		t.Errorf("paper example performed %d page accesses below budget", small.IO.Accesses())
	}
}

func TestMinePagedSurfacesIOErrors(t *testing.T) {
	// Inject faults at varying depths; mining must return the error (not
	// panic, not return partial results as success).
	// The injection tests use a 4-frame pool, so a working set larger than
	// the pool forces physical I/O deterministically.
	d := faultDataset()
	for _, failAfter := range []int{0, 1, 5, 20, 100} {
		fstore := storage.NewFaultStore(storage.NewMemStore())
		fstore.FailWriteAfter = failAfter
		_, err := MinePaged(d, Options{MinSupportFrac: 0.05}, PagedConfig{Store: fstore, PoolFrames: 4})
		if err == nil {
			t.Errorf("failAfter=%d: mining succeeded despite write faults", failAfter)
			continue
		}
		if !errors.Is(err, storage.ErrInjected) {
			t.Errorf("failAfter=%d: error %v does not wrap the injected fault", failAfter, err)
		}
	}
}

// faultDataset is big enough that the paged driver's working set exceeds a
// 4-frame pool many times over (hundreds of pages).
func faultDataset() *Dataset {
	d := &Dataset{}
	for i := 0; i < 800; i++ {
		items := make([]Item, 5)
		for j := range items {
			items[j] = Item((i*11+j*3)%25 + 1)
		}
		d.Transactions = append(d.Transactions, Transaction{ID: int64(i + 1), Items: items})
	}
	return d
}

func TestMinePagedReadFaults(t *testing.T) {
	fstore := storage.NewFaultStore(storage.NewMemStore())
	fstore.FailReadAfter = 3
	_, err := MinePaged(faultDataset(), Options{MinSupportFrac: 0.05}, PagedConfig{Store: fstore, PoolFrames: 4})
	if err == nil {
		t.Fatal("mining succeeded despite read faults")
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Errorf("error %v does not wrap the injected fault", err)
	}
}

func TestMinePagedSequentialDominatedOnLargeData(t *testing.T) {
	// With a pool far smaller than the data, SETM's physical reads must be
	// mostly sequential — the property the paper's Section 4.3 timing
	// assumes.
	d := &Dataset{}
	for i := 0; i < 3000; i++ {
		items := make([]Item, 6)
		for j := range items {
			items[j] = Item((i*7+j*13)%40 + 1)
		}
		d.Transactions = append(d.Transactions, Transaction{ID: int64(i + 1), Items: items})
	}
	res, err := MinePaged(d, Options{MinSupportFrac: 0.02}, PagedConfig{PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.IO.Reads == 0 {
		t.Fatal("no physical reads")
	}
	if res.IO.SeqReads <= res.IO.RandReads {
		t.Errorf("reads not sequential-dominated: seq=%d rand=%d",
			res.IO.SeqReads, res.IO.RandReads)
	}
}
