package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"setm"
	"setm/internal/apriori"
	"setm/internal/core"
	"setm/internal/gen"
)

// retailGrown generates the retail stand-in grown by extra transactions.
// The generator is prefix-stable: the first retailTxns transactions are
// exactly the un-grown data set, the rest a disjoint continuation.
func retailGrown(seed int64, sc scale, extra int) *core.Dataset {
	cfg := gen.DefaultRetail(seed)
	cfg.NumTransactions = sc.retailTxns + extra
	return gen.Retail(cfg)
}

// makeDataset generates a workload's data set from the seed.
func makeDataset(data string, seed int64, sc scale) *core.Dataset {
	var d *core.Dataset
	if data == "quest" {
		d = gen.Quest(gen.T10I4D100K(sc.questScale, seed))
	} else {
		d = retailGrown(seed, sc, 0)
	}
	d.SalesRows() // normalize now, so no op pays for it
	return d
}

// slice returns the transactions [lo, hi) of d as a data set of its own.
func slice(d *core.Dataset, lo, hi int) *core.Dataset {
	return &core.Dataset{Transactions: d.Transactions[lo:hi]}
}

// body is one setmd upload: a retail data set as SALES text plus a 1%
// continuation to append to it.
type body struct {
	base, delta []byte
	baseD       *core.Dataset
	grownD      *core.Dataset // base + delta
	rows        int64         // |R_1| of the base
}

// deltaTxns is the size of a body's append: 1% of the base.
func deltaTxns(sc scale) int { return max(1, (sc.retailTxns+50)/100) }

// makeBodies generates the setmd upload bodies, seeds seed..seed+n-1.
func makeBodies(seed int64, sc scale) ([]body, error) {
	bodies := make([]body, sc.bodies)
	for i := range bodies {
		grown := retailGrown(seed+int64(i), sc, deltaTxns(sc))
		b := body{baseD: slice(grown, 0, sc.retailTxns), grownD: grown}
		var base, delta bytes.Buffer
		if err := setm.WriteDataset(&base, b.baseD); err != nil {
			return nil, err
		}
		if err := setm.WriteDataset(&delta, slice(grown, sc.retailTxns, len(grown.Transactions))); err != nil {
			return nil, err
		}
		b.base, b.delta, b.rows = base.Bytes(), delta.Bytes(), int64(b.baseD.NumSalesRows())
		bodies[i] = b
	}
	return bodies, nil
}

// sha256Rows fingerprints an input: the SHA-256 of its normalized SALES
// relation as little-endian (trans_id, item) int64 pairs.
func sha256Rows(d *core.Dataset) string {
	h := sha256.New()
	var buf [16]byte
	for _, r := range d.SalesRows() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(r[0]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r[1]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// independentDigest mines d on a path that shares no kernel with the ops
// under test and fingerprints the counts: Apriori for retail data, the
// generic (unpacked) SETM kernels for quest, where Apriori takes ~9 s.
func independentDigest(data string, d *core.Dataset, minsup float64) (uint64, error) {
	opts := core.Options{MinSupportFrac: minsup}
	var res *core.Result
	var err error
	if data == "quest" {
		opts.DisablePackedKernels = true
		res, err = core.MineMemory(d, opts)
	} else {
		res, err = apriori.MineApriori(d, opts)
	}
	if err != nil {
		return 0, fmt.Errorf("reference mine: %w", err)
	}
	return digestCounts(res.Counts), nil
}

// reference generates a workload's inputs and computes the digests its
// ops are checked against, plus each input's SHA-256. It runs in the
// parent process, so the reference miners' memory never counts towards the
// workload's peak RSS. native/sql workloads have one digest per data set
// (see workload.datasets); setmd-mix two per body (base, base+delta).
func reference(w workload, seed int64, sc scale, trace bool) (refs []uint64, shas []string, err error) {
	if w.kind != "setmd" {
		for i := 0; i < w.datasets(sc, trace); i++ {
			d := makeDataset(w.data, seed+int64(i), sc)
			ref, err := independentDigest(w.data, d, w.minsup)
			if err != nil {
				return nil, nil, err
			}
			refs, shas = append(refs, ref), append(shas, sha256Rows(d))
		}
		return refs, shas, nil
	}
	bodies, err := makeBodies(seed, sc)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range bodies {
		for _, d := range []*core.Dataset{b.baseD, b.grownD} {
			ref, err := independentDigest(w.data, d, w.minsup)
			if err != nil {
				return nil, nil, err
			}
			refs = append(refs, ref)
		}
		shas = append(shas, sha256Rows(b.grownD))
	}
	return refs, shas, nil
}
