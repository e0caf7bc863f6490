package core_test

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"setm"
	"setm/internal/core"
)

// basketShape is one data set of TestBasketOrdinals, with the trans_id
// that splits it into a base and a delta of distinct, larger trans_ids.
type basketShape struct {
	name string
	d    *core.Dataset
	cut  int64
	// sha256 of WriteDataset's bytes, taken from the build before SALES
	// rows carried basket ordinals.
	golden string
}

// basketShapes are 3,000 of signedDataset's transactions (trans_ids
// from -4 up), as generated, shuffled, and shuffled with the lower
// half's trans_ids shared by two transactions each, every seventh of
// them empty.
func basketShapes() []basketShape {
	negative := core.SignedDataset(31, 3000, 9, 12)
	unsorted := core.SignedDataset(32, 3000, 9, 12)
	dup := core.SignedDataset(33, 3000, 9, 12)
	cuts := []int64{
		negative.Transactions[1500].ID,
		unsorted.Transactions[1500].ID,
		dup.Transactions[1500].ID,
	}
	for i := range dup.Transactions[:1500] {
		dup.Transactions[i].ID = dup.Transactions[i-i%2].ID
		if i%7 == 0 {
			dup.Transactions[i].Items = nil
		}
	}
	rng := rand.New(rand.NewSource(34))
	for _, d := range []*core.Dataset{unsorted, dup} {
		rng.Shuffle(len(d.Transactions), func(i, j int) {
			d.Transactions[i], d.Transactions[j] = d.Transactions[j], d.Transactions[i]
		})
	}
	return []basketShape{
		{"negative", negative, cuts[0], "e35842de15fc21aa04ca553fc41a32db4ebc2b68580fe8baf76017183cd255b1"},
		{"unsorted", unsorted, cuts[1], "0b1707e246779728c08a9ce48ae8b44ed0b4e4582a7edc2dee3e9e5a27f3ebaa"},
		{"duplicate", dup, cuts[2], "a1223d49e996bfa73824149a464b7badef6b320766b2fa5019960e02fdebfa94"},
	}
}

// salesReference is SALES as the paper stores it, built without the
// memo: one (trans_id, item) row per distinct item of a transaction,
// sorted by (trans_id, item).
func salesReference(d *core.Dataset) [][2]int64 {
	var rows [][2]int64
	for _, tx := range d.Transactions {
		items := slices.Clone(tx.Items)
		slices.Sort(items)
		for _, it := range slices.Compact(items) {
			rows = append(rows, [2]int64{tx.ID, it})
		}
	}
	slices.SortStableFunc(rows, func(a, b [2]int64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return rows
}

// TestBasketOrdinals pins the memo's basket index over negative,
// unsorted and duplicate trans_ids: one basket per trans_id, strictly
// ascending, each basket's rows contiguous, tagged with its ordinal and
// ascending by code; what shows trans_ids (SalesRows, WriteDataset)
// unchanged by it; and the mines that look baskets up — resident,
// fanned out, budgeted, and MineDelta over Δ's own baskets — equal to
// the flat reference.
func TestBasketOrdinals(t *testing.T) {
	for _, sh := range basketShapes() {
		t.Run(sh.name, func(t *testing.T) {
			d := sh.d
			tids, starts, rows := core.BasketIndex(d)
			if len(starts) != len(tids)+1 || starts[0] != 0 || int(starts[len(tids)]) != len(rows) {
				t.Fatalf("%d baskets, starts %d..%d of %d entries, |SALES| %d", len(tids), starts[0], starts[len(starts)-1], len(starts), len(rows))
			}
			for b := range tids {
				if b > 0 && tids[b-1] >= tids[b] {
					t.Fatalf("tids[%d] = %d after %d: not strictly ascending", b, tids[b], tids[b-1])
				}
				if starts[b] >= starts[b+1] {
					t.Fatalf("basket %d is rows [%d, %d): empty or reversed", b, starts[b], starts[b+1])
				}
				bk := rows[starts[b]:starts[b+1]]
				for i, r := range bk {
					if r.Tid != uint64(b) || (i > 0 && bk[i-1].Key > r.Key) {
						t.Fatalf("basket %d row %d = %+v: wrong ordinal or not ascending by code", b, i, r)
					}
				}
			}

			want := salesReference(d)
			if got := d.SalesRows(); !slices.Equal(got, want) {
				t.Fatalf("SalesRows differs from the reference (%d vs %d rows)", len(got), len(want))
			}
			var buf, ref bytes.Buffer
			if err := setm.WriteDataset(&buf, d); err != nil {
				t.Fatal(err)
			}
			for _, r := range want {
				fmt.Fprintf(&ref, "%d %d\n", r[0], r[1])
			}
			sum := sha256.Sum256(buf.Bytes())
			if !bytes.Equal(buf.Bytes(), ref.Bytes()) || hex.EncodeToString(sum[:]) != sh.golden {
				t.Errorf("WriteDataset bytes moved: sha256 %x, want %s", sum, sh.golden)
			}

			const minSup = 30
			oracle, err := core.MineMemory(d, core.Options{MinSupportCount: minSup, DisablePackedKernels: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(oracle.Counts) < 3 {
				t.Fatalf("setup: the mine stops at k = %d, want k >= 3", len(oracle.Counts))
			}
			for _, arm := range []struct {
				name string
				opts core.Options
				plan string // a pass must have run this plan
			}{
				{"resident", core.Options{MinSupportCount: minSup, MaxWorkers: 1}, "packed/resident/1w/table"},
				{"2-worker", core.Options{MinSupportCount: minSup, MaxWorkers: 2}, "packed/resident/2w/table"},
				{"64KiB", core.Options{MinSupportCount: minSup, MemoryBudget: 64 << 10}, "packed/spilled/1w/table"},
			} {
				got, err := core.MineAuto(d, arm.opts)
				if err != nil {
					t.Fatalf("%s: %v", arm.name, err)
				}
				assertIdenticalCounts(t, arm.name, oracle, got)
				var plans []string
				for _, st := range got.Stats[2:] {
					plans = append(plans, st.Plan.String())
				}
				if !slices.Contains(plans, arm.plan) {
					t.Errorf("%s: passes k >= 3 ran %v, none %s", arm.name, plans, arm.plan)
				}
			}

			var base, delta core.Dataset
			for _, tx := range d.Transactions {
				if tx.ID < sh.cut {
					base.Transactions = append(base.Transactions, tx)
				} else {
					delta.Transactions = append(delta.Transactions, tx)
				}
			}
			opts := core.Options{MinSupportCount: minSup, RetainBorder: true}
			snap, err := core.MineAuto(&base, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.MineDelta(context.Background(), &base, &delta, snap.Border, opts)
			if err != nil {
				t.Fatalf("MineDelta: %v", err)
			}
			if !reflect.DeepEqual(got.Counts, oracle.Counts) {
				t.Fatalf("MineDelta over a split at trans_id %d differs from the cold mine (plans %s)", sh.cut, planList(got))
			}
		})
	}
}

func planList(r *core.Result) string {
	var s []string
	for _, st := range r.Stats {
		s = append(s, st.Plan.String())
	}
	return strings.Join(s, " ")
}
