package masm

import (
	"fmt"
	"sync"

	core "masm/internal/masm"
	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/txn"
	"masm/internal/wal"
)

// recoverTables is the engine's crash recovery — paper §3.6, extended to
// the shared multi-table log of §5 — and the only one: OpenEngineDir and
// the in-memory Engine.Crash both end here. tables is e's catalog in id
// order, each table holding its restored heap but no store yet; e.log is
// the fresh log the recovered state is checkpointed into, and oldLog holds
// the log to replay. In order, recovery
//
//  1. streams oldLog once through a wal.Replayer, starting each run's
//     rebuild scan on a worker the moment its metadata streams out;
//  2. resumes the oracle above every logged timestamp;
//  3. checkpoints the recovered state into e.log (one forced write);
//  4. reserves every table's surviving run extents in the shared
//     allocator;
//  5. restores each table's store from its prebuilt runs and lost
//     buffer, redoing an interrupted migration.
//
// Records of tables absent from tables belong to dropped tables and are
// ignored. workers bounds the concurrent rebuild scans; ≤ 0 selects
// storage.DefaultIOWorkers. A scan is pure data-plane work
// (runfile.RebuildOffline: PeekAt, no pricing), and step 5 charges its
// recorded spans on the simulated device serially in run order, so the
// virtual timeline does not depend on workers. recoverTables returns the
// virtual time recovery ends at.
func (e *Engine) recoverTables(oldLog *storage.Volume, at sim.Time, tables []*Table, workers int) (sim.Time, error) {
	if workers <= 0 {
		workers = storage.DefaultIOWorkers
	}
	type jobKey struct {
		table uint32
		run   int64
	}
	prebuilt := make(map[uint32]map[int64]core.PrebuiltRun, len(tables))
	for _, t := range tables {
		prebuilt[t.id] = make(map[int64]core.PrebuiltRun)
	}
	rcfg := e.coreConfigFor().Run
	ssd := e.ssdVol
	var (
		pmu        sync.Mutex
		sem        = make(chan struct{}, workers)
		dispatched = make(map[jobKey]chan struct{})
	)
	// dispatch starts one run's rebuild scan. Results land in prebuilt;
	// each job closes its done channel, and the restore loop waits per
	// table, so one table's memtable replay overlaps the next table's scans
	// still in flight. It is only ever called from this goroutine:
	// dispatched needs no lock, and duplicate announcements (a checkpointed
	// run re-flushed) are deduped here.
	dispatch := func(table uint32, rm core.RunMeta) {
		if rm.Format > runfile.MaxFormat {
			return // the restore reports the version error
		}
		if prebuilt[table] == nil {
			return // a dropped table's records: replay ignores them too
		}
		k := jobKey{table, rm.RunID}
		if _, ok := dispatched[k]; ok {
			return
		}
		done := make(chan struct{})
		dispatched[k] = done
		go func() {
			defer close(done)
			sem <- struct{}{}
			defer func() { <-sem }()
			var (
				run   *runfile.Run
				spans []runfile.Span
				rerr  error
			)
			if rm.Format >= runfile.FormatZoneMaps && rm.IndexSize > 0 {
				// Zone-mapped runs skip record decode: the persisted block
				// restores the index, the data is swept for its checksum only.
				run, spans, rerr = runfile.LoadIndexOffline(ssd, rm.Off, rm.Size,
					rm.IndexSize, rm.RunID, rm.Passes, rm.CRC, rcfg)
			} else {
				run, spans, rerr = runfile.RebuildOffline(ssd, rm.Off, rm.Size,
					rm.RunID, rm.Passes, rm.CRC, rcfg)
			}
			pmu.Lock()
			prebuilt[table][rm.RunID] = core.PrebuiltRun{Run: run, Spans: spans, Err: rerr}
			pmu.Unlock()
		}()
	}
	// No scan may outlive recovery: an error return hands the engine's
	// files back to the caller's cleanup while a scan could still be
	// mid-read. On success every channel is already closed.
	defer func() {
		for _, ch := range dispatched {
			<-ch
		}
	}()

	// 1. Replay: frames decode out of a bounded sliding window and fold into
	// per-table state on the spot, so a log of any length replays in
	// O(chunk) memory.
	rep := wal.NewReplayer()
	rep.OnRun = dispatch
	var replayed int64
	now, err := wal.ReadStream(oldLog, at, func(ent wal.Entry) error {
		replayed++
		rep.Observe(ent)
		return nil
	})
	if err != nil {
		return now, err
	}
	states := rep.States()
	e.reg.Gauge("masm_wal_replay_entries").Set(replayed)
	e.tracer.Emit("recovery", "", "replay", fmt.Sprintf("entries=%d", replayed), int64(now))

	// 2. Resume the shared oracle above every logged timestamp — including
	// migration timestamps already stamped onto data pages, which would
	// otherwise suppress post-recovery updates (see wal.TableState.MaxTS).
	var maxTS int64
	for _, st := range states {
		e.oracle.AdvanceTo(st.MaxTS)
		maxTS = max(maxTS, st.MaxTS)
	}

	// 3. Checkpoint, so a second crash recovers too. The engine-wide high
	// water goes in as its own entry (no runs or pending records writes
	// only the oracle-advance record), so the NEXT recovery of this
	// checkpoint also resumes above the stamps.
	cps := make([]wal.TableCheckpoint, 0, len(tables)+1)
	if maxTS > 0 {
		cps = append(cps, wal.TableCheckpoint{MaxTS: maxTS})
	}
	for _, t := range tables {
		if st := states[t.id]; st != nil {
			cps = append(cps, wal.TableCheckpoint{Table: t.id, Runs: st.Runs, Pending: st.Pending})
		}
	}
	if now, err = e.log.CheckpointAll(now, cps); err != nil {
		return now, err
	}

	// 4. Re-register EVERY table's surviving run extents with the shared
	// allocator before restoring ANY table: a restore can allocate fresh
	// extents (an interrupted migration's redo flushes the replayed
	// buffer), and a later table's durable runs must already be off the
	// free list or the allocation overwrites them.
	allocs := make(map[uint32]core.RunAllocator, len(tables))
	for _, t := range tables {
		alloc := e.shared.Partition(t.id, t.cacheBudget*2)
		allocs[t.id] = alloc
		if st := states[t.id]; st != nil {
			if err := core.ReserveRunExtents(e.coreConfigFor(), alloc, st.Runs); err != nil {
				return now, fmt.Errorf("table %q: %w", t.name, err)
			}
		}
	}
	// Dispatch any surviving run the replay did not announce, then wait
	// for the scans of runs the log later consumed: their extents are free
	// again, and the first redone migration below may reuse them — a stale
	// scan's result is discarded either way, but it must not still be
	// reading when new data lands.
	final := make(map[jobKey]bool)
	for _, t := range tables {
		if st := states[t.id]; st != nil {
			for _, rm := range st.Runs {
				final[jobKey{t.id, rm.RunID}] = true
				dispatch(t.id, rm)
			}
		}
	}
	for k, ch := range dispatched {
		if !final[k] {
			<-ch
		}
	}
	e.reg.Gauge("masm_recovery_rebuild_workers").Set(int64(workers))

	// 5. Restore each table once its own scans are done.
	for _, t := range tables {
		st := states[t.id]
		if st == nil {
			st = &wal.TableState{}
		}
		for k, ch := range dispatched {
			if k.table == t.id {
				<-ch
			}
		}
		ccfg := e.coreConfigFor()
		ccfg.SSDCapacity = roundTo(t.cacheBudget, 4<<10)
		store, end, err := core.RestoreSharedPrebuilt(ccfg, t.tbl, e.ssdVol, e.oracle,
			e.log.ForTable(t.id), core.PreReserved(allocs[t.id]), t.id, st.Runs,
			prebuilt[t.id], st.Pending, st.RedoMigration, now,
			e.storeMetricsFor(t.name))
		if err != nil {
			return now, fmt.Errorf("table %q: %w", t.name, err)
		}
		now = end
		t.store = store
		t.txns = txn.NewManager(store)
	}
	return now, nil
}
