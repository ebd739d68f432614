package masm

import (
	"testing"

	"masm/internal/extsort"
	"masm/internal/obs"
	"masm/internal/update"
)

// TestHotPathInstrumentationAllocs gates the store-level instrumentation:
// the exact metric sequences the write, scan and merge hot paths execute
// per operation must not allocate. The raw handle gates live in the obs
// package; this pins the composed sequences (and would catch a future
// edit that slips a label lookup or a fmt call into a hot site).
func TestHotPathInstrumentationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments atomics with allocations")
	}
	m := NewStoreMetrics(obs.NewRegistry(), obs.L("table", "t"))

	// Write path: one accepted update (store.go applyNoLogLocked).
	var buffered int64
	if n := testing.AllocsPerRun(10000, func() {
		m.UpdatesAccepted.Inc()
		buffered += 72
		m.MemtableBytes.Set(buffered)
	}); n != 0 {
		t.Fatalf("write-path instrumentation allocates %v per update", n)
	}

	// Scan path: open + close bookkeeping (query.go); the per-row cost is
	// a plain integer add with no metric call at all.
	var vnanos int64
	if n := testing.AllocsPerRun(10000, func() {
		m.ScansStarted.Inc()
		m.ActiveQueries.Set(1)
		m.QueryPagesInUse.Set(3)
		vnanos += 1375
		m.ScanLatencyNanos.Observe(vnanos)
		m.ScanBytes.Observe(4096)
		m.ActiveQueries.Set(0)
		m.QueryPagesInUse.Set(0)
	}); n != 0 {
		t.Fatalf("scan-path instrumentation allocates %v per scan", n)
	}

	// Merge path: the per-record cost is plain int64 fields inside the
	// merger; the registry only sees one fold per completed merge.
	if n := testing.AllocsPerRun(10000, func() {
		m.addMerger(extsort.MergerStats{Comparisons: 900, Refills: 12, Records: 512})
	}); n != 0 {
		t.Fatalf("merge-stats fold allocates %v per merge", n)
	}
}

// TestStoreMetricsReconcile drives a store through its paces and checks
// CheckMetrics reconciles, then breaks a gauge and checks it does not.
func TestStoreMetricsReconcile(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	e.applyRandom(500)
	if _, err := e.store.Flush(e.now); err != nil {
		t.Fatal(err)
	}
	if err := e.store.CheckMetrics(); err != nil {
		t.Fatalf("healthy store fails reconciliation: %v", err)
	}
	e.store.Metrics().RunBytes.Add(1)
	if err := e.store.CheckMetrics(); err == nil {
		t.Fatal("skewed run-bytes gauge passed reconciliation")
	}
}

// TestQueryFoldsMergeStats checks that a range scan's Merge_updates work
// reaches the merge-engine counters: a full scan over two runs merges
// every cached update once, and Close folds exactly that many records.
func TestQueryFoldsMergeStats(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	const perRun = 300
	for r := 0; r < 2; r++ {
		for i := 0; i < perRun; i++ {
			key := uint64(2*(r*perRun+i) + 1) // odd keys: fresh inserts
			e.apply(update.Record{Key: key, Op: update.Insert, Payload: body(key, 92)})
		}
		t1, err := e.store.Flush(e.now)
		if err != nil {
			t.Fatal(err)
		}
		e.now = t1
	}
	if n := e.store.Runs(); n < 2 {
		t.Fatalf("store holds %d runs, want at least 2", n)
	}
	m := e.store.Metrics()
	records0, cmps0 := m.MergeRecords.Value(), m.MergeComparisons.Value()
	e.verifyRange(0, ^uint64(0))
	if got := m.MergeRecords.Value() - records0; got != 2*perRun {
		t.Fatalf("scan folded %d merged records, want %d", got, 2*perRun)
	}
	if m.MergeComparisons.Value() == cmps0 {
		t.Fatal("scan over two runs folded no merge comparisons")
	}
}
