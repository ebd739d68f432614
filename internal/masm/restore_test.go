package masm

import (
	"fmt"
	"reflect"
	"testing"

	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/update"
)

// runLog is a RedoLogger that keeps only what recovery needs from the
// log: the live run set, folded from flush and merge records.
type runLog struct{ live map[int64]RunMeta }

func (l *runLog) LogUpdate(at sim.Time, _ update.Record) (sim.Time, error) { return at, nil }

func (l *runLog) LogFlush(at sim.Time, run RunMeta) (sim.Time, error) {
	l.live[run.RunID] = run
	return at, nil
}

func (l *runLog) LogMerge(at sim.Time, run RunMeta, consumed []int64) (sim.Time, error) {
	for _, id := range consumed {
		delete(l.live, id)
	}
	l.live[run.RunID] = run
	return at, nil
}

func (l *runLog) LogMigrationBegin(at sim.Time, _ int64, _ []int64) (sim.Time, error) {
	return at, nil
}

func (l *runLog) LogMigrationEnd(at sim.Time, _ int64) (sim.Time, error) { return at, nil }

func (l *runLog) LogMigrationPortion(at sim.Time, _ int64, _ []int64) (sim.Time, error) {
	return at, nil
}

// crashedEnv builds a store whose SSD holds both 1-pass and 2-pass runs
// and returns the environment with the run set its log describes. The
// workload is seeded, so two calls build byte- and timeline-identical
// environments.
func crashedEnv(t *testing.T, cfg Config) (*env, []RunMeta) {
	t.Helper()
	e := newEnv(t, 3000, cfg)
	log := &runLog{live: make(map[int64]RunMeta)}
	var err error
	if e.store, err = NewStore(cfg, e.tbl, e.store.SSDVolume(), e.oracle, log); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		e.applyRandom(40)
		if e.now, err = e.store.Flush(e.now); err != nil {
			t.Fatal(err)
		}
	}
	e.verifyRange(0, ^uint64(0)) // query setup merges the surplus into 2-pass runs
	for i := 0; i < 3; i++ {
		e.applyRandom(40)
		if e.now, err = e.store.Flush(e.now); err != nil {
			t.Fatal(err)
		}
	}
	var runs []RunMeta
	passes := map[int]bool{}
	for _, rm := range log.live {
		runs = append(runs, rm)
		passes[rm.Passes] = true
	}
	if !passes[1] || !passes[2] {
		t.Fatalf("workload left runs of passes %v, want both 1 and 2", passes)
	}
	return e, runs
}

// restoreOnce restores e's run set into a fresh store — with each run's
// scan performed offline first when offline is set, as engine recovery
// does, or priced inline by Rebuild/LoadIndex otherwise — and returns the
// store and the virtual time the restore ends at.
func restoreOnce(t *testing.T, e *env, runs []RunMeta, offline bool) (*Store, sim.Time) {
	t.Helper()
	cfg := e.store.Config()
	ssd := e.store.SSDVolume()
	var prebuilt map[int64]PrebuiltRun
	if offline {
		prebuilt = make(map[int64]PrebuiltRun, len(runs))
		for _, rm := range runs {
			var pb PrebuiltRun
			if rm.Format >= runfile.FormatZoneMaps && rm.IndexSize > 0 {
				pb.Run, pb.Spans, pb.Err = runfile.LoadIndexOffline(ssd, rm.Off, rm.Size,
					rm.IndexSize, rm.RunID, rm.Passes, rm.CRC, cfg.Run)
			} else {
				pb.Run, pb.Spans, pb.Err = runfile.RebuildOffline(ssd, rm.Off, rm.Size,
					rm.RunID, rm.Passes, rm.CRC, cfg.Run)
			}
			prebuilt[rm.RunID] = pb
		}
	}
	s, end, err := RestoreSharedPrebuilt(cfg, e.tbl, ssd, &Oracle{}, nil,
		newExtentAlloc(ssd.Size()), 0, runs, prebuilt, nil, nil, e.now, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, end
}

// runShape is a restored run's metadata plus the read plans its index and
// zone maps produce, which is everything a query asks of the run.
type runShape struct {
	ID, Off, Size, Count, IndexSize int64
	MinKey, MaxKey                  uint64
	MinTS, MaxTS                    int64
	Passes, Format, IndexEntries    int
	CRC                             uint32
	Full, Pruned                    []runfile.Segment
	FullBytes, PrunedBytes          int64
}

func shapeOf(r *runfile.Run, gran int) runShape {
	sh := runShape{ID: r.ID, Off: r.Off, Size: r.Size, Count: r.Count, IndexSize: r.IndexSize,
		MinKey: r.MinKey, MaxKey: r.MaxKey, MinTS: r.MinTS, MaxTS: r.MaxTS,
		Passes: r.Passes, Format: r.Format(), IndexEntries: r.IndexEntries(), CRC: r.CRC}
	sh.Full, sh.FullBytes = r.PlanSegments(0, ^uint64(0), 1<<62, gran, nil)
	pred := update.NewPred([]update.KeyRange{{Lo: 500, Hi: 900}, {Lo: 3000, Hi: 3100}})
	sh.Pruned, sh.PrunedBytes = r.PlanSegments(0, ^uint64(0), (r.MinTS+r.MaxTS)/2, gran, pred)
	return sh
}

func fullScan(t *testing.T, s *Store, at sim.Time) []string {
	t.Helper()
	q, err := s.NewQuery(at, 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var rows []string
	for {
		row, ok, err := q.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, fmt.Sprintf("%d\x00%x", row.Key, row.Body))
	}
}

// TestRestorePrebuiltMatchesInline is the reference for engine recovery's
// rebuild path: restoring a run set from offline scans (the spans charged
// afterwards) must end at the same virtual time, with the same run
// metadata and indexes, serving the same rows, as restoring it with every
// scan priced inline. Both run formats are covered: format 1 rebuilds the
// index from the records, format 2 loads the persisted zone-map block.
func TestRestorePrebuiltMatchesInline(t *testing.T) {
	for _, format := range []int{runfile.FormatVersion, runfile.FormatZoneMaps} {
		t.Run(fmt.Sprintf("format%d", format), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Run.PersistZoneMaps = format == runfile.FormatZoneMaps
			inlineEnv, runs := crashedEnv(t, cfg)
			offlineEnv, offlineRuns := crashedEnv(t, cfg)
			if len(runs) != len(offlineRuns) {
				t.Fatalf("seeded workloads diverged: %d vs %d runs", len(runs), len(offlineRuns))
			}
			for _, rm := range runs {
				if rm.Format != uint16(format) {
					t.Fatalf("run %d has format %d, want %d", rm.RunID, rm.Format, format)
				}
			}

			inline, inlineEnd := restoreOnce(t, inlineEnv, runs, false)
			offline, offlineEnd := restoreOnce(t, offlineEnv, offlineRuns, true)
			if inlineEnd != offlineEnd {
				t.Fatalf("restore ended at %d inline, %d from offline scans", inlineEnd, offlineEnd)
			}
			if inlineEnd <= inlineEnv.now {
				t.Fatalf("restore charged no time (%d -> %d)", inlineEnv.now, inlineEnd)
			}
			if len(inline.runs) != len(offline.runs) {
				t.Fatalf("restored %d runs inline, %d from offline scans", len(inline.runs), len(offline.runs))
			}
			gran := cfg.ScanGranularity
			for i := range inline.runs {
				a, b := shapeOf(inline.runs[i], gran), shapeOf(offline.runs[i], gran)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("run %d diverged:\n  inline  %+v\n  offline %+v", a.ID, a, b)
				}
			}
			if !reflect.DeepEqual(inline.extents, offline.extents) {
				t.Fatalf("extents diverged: inline %v, offline %v", inline.extents, offline.extents)
			}
			a, b := fullScan(t, inline, inlineEnd), fullScan(t, offline, offlineEnd)
			if len(a) != len(b) {
				t.Fatalf("full scan: %d rows inline, %d from offline scans", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("full scan row %d diverged: %q vs %q", i, a[i], b[i])
				}
			}
		})
	}
}
