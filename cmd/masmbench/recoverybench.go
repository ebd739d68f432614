package main

// Recovery and async-I/O wall-clock benchmark (BENCH_8): what does the
// file backend's I/O pass buy on real hardware? The benchmark builds a
// multi-table directory — several tables, each with materialized sorted
// runs surviving on the SSD cache file — measures grouped update
// ingestion, measures one table's migration (whose shadow-batch writes go
// through the async I/O pool; the pool's depth high-water proves the
// kernel saw queue depth > 1), hard-stops the engine, and then times full
// directory recovery twice on the one recovery path (streaming WAL replay
// feeding run rebuilds): with a single rebuild worker (RecoveryWorkers 1,
// the serial leg) and with the default concurrent pool (the parallel leg).
// Both legs recover bit-identical state and virtual times; the comparison
// is pure wall-clock. Recovery legs open with O_DIRECT so
// the run scans genuinely hit the device instead of replaying the page
// cache, on this host as on a cold start.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"masm"
)

type recoveryBenchLeg struct {
	Mode        string  `json:"mode"` // "serial" or "parallel"
	Workers     int     `json:"workers"`
	BestWallMS  float64 `json:"best_wall_ms"`
	Repetitions int     `json:"repetitions"`
}

type recoveryBenchResult struct {
	Benchmark     string  `json:"benchmark"`
	Tables        int     `json:"tables"`
	Rows          int     `json:"rows"`
	Updates       int     `json:"updates"`
	RunsPerTable  int     `json:"runs_per_table"`
	DirectIO      bool    `json:"direct_io"`
	IngestWallMS  float64 `json:"ingest_wall_ms"`
	IngestUpdSec  float64 `json:"ingest_upd_per_sec"`
	MigrateWallMS float64 `json:"migrate_wall_ms"`
	// MigrateIODepthPeak is the async pool's high-water of concurrent
	// in-flight backend operations during the migration — > 1 means the
	// shadow-batch writes genuinely overlapped in the kernel.
	MigrateIODepthPeak int64              `json:"migrate_io_depth_peak"`
	Recovery           []recoveryBenchLeg `json:"recovery"`
	// Speedup is serial best over parallel best.
	Speedup float64 `json:"recovery_speedup"`
}

// recoveryBench builds the directory, runs both recovery legs, prints a
// summary and writes jsonPath (empty skips the file). keep leaves the
// working directory behind for inspection.
func recoveryBench(rows int, seed int64, keep bool, jsonPath string) error {
	dir, err := os.MkdirTemp("", "masm-recoverybench-*")
	if err != nil {
		return err
	}
	defer func() {
		if keep {
			fmt.Printf("  (keeping working directory %s)\n", dir)
			return
		}
		os.RemoveAll(dir)
	}()

	const tables = 6
	// Each flush batch stays under the S-page update buffer (~180KB at a
	// 32MB cache), so flushes are explicit and every table leaves a pile of
	// ~140KB runs for recovery to scan: the run data, not the fixed open
	// costs, is what the two recovery legs spend their time on.
	const perRun = 512
	// Rounded to whole runs: a partial tail batch would sit in the memtable
	// and push the later pending wave over the auto-flush threshold,
	// converting the pending set this benchmark wants replayed into a run.
	perT := (rows / tables / perRun) * perRun
	runsPerTable := perT / perRun
	if runsPerTable < 2 {
		return fmt.Errorf("recoverybench: %d rows spread over %d tables is too small", rows, tables)
	}
	res := recoveryBenchResult{
		Benchmark:    "parallel-recovery",
		Tables:       tables,
		Rows:         rows,
		RunsPerTable: runsPerTable,
		DirectIO:     true,
	}

	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 32 << 20
	opts := masm.EngineDirOptions{Config: cfg, DataBytes: 1 << 30}
	eng, err := masm.OpenEngineDir(dir, opts)
	if err != nil {
		return err
	}
	// Close on every early exit; the happy path hard-stops instead.
	closed := false
	defer func() {
		if !closed {
			eng.Close()
		}
	}()

	tbls := make([]*masm.Table, tables)
	for i := range tbls {
		keys := make([]uint64, perT)
		bodies := make([][]byte, perT)
		for j := range keys {
			keys[j] = uint64(j+1) * 2
			bodies[j] = []byte(fmt.Sprintf("t%d-fact-%07d: qty=01 price=0099 status=SHIPPED", i, keys[j]))
		}
		if tbls[i], err = eng.CreateTable(fmt.Sprintf("t%d", i), masm.TableOptions{Keys: keys, Bodies: bodies}); err != nil {
			return err
		}
	}

	// Grouped ingestion: odd-key inserts, a Sync per group (the durability
	// boundary), and periodic flushes so every table leaves several
	// materialized runs on the SSD for recovery to rebuild.
	const group = 64
	// A fat row body (~256B, the shape of a denormalized fact row) makes
	// the materialized runs big enough that rebuild I/O dominates recovery.
	body := make([]byte, 256)
	copy(body, "ins-xxxxxxx: qty=01 price=0099 status=PENDING ")
	for i := 46; i < len(body); i++ {
		body[i] = byte('a' + i%26)
	}
	t0 := time.Now()
	for i, tbl := range tbls {
		for j := 0; j < perT; j++ {
			key := uint64(i*perT+j)*2 + 1
			if err := tbl.Insert(key, body); err != nil {
				return err
			}
			res.Updates++
			if (j+1)%group == 0 {
				if err := eng.Sync(); err != nil {
					return err
				}
			}
			if (j+1)%perRun == 0 {
				if err := tbl.Flush(); err != nil {
					return err
				}
			}
		}
	}
	// A final synced-but-unflushed wave leaves every memtable close to
	// full, so the crash strands a realistic pending set: recovery must
	// replay it from the log on every reopen (it rides in the rewritten
	// checkpoint), which is exactly the work the streaming replay speeds
	// up. Sized at ~80% of the S-page buffer so no auto-flush converts it
	// into yet another run.
	// Per-table geometry mirrors coreConfig: 4KB accounting pages,
	// M = √pages, S_opt = 0.5·αM pages of update buffer (α = 1).
	ssdPage := 4 << 10
	mPages := int(math.Sqrt(float64(cfg.CacheBytes / int64(ssdPage))))
	pendingBudget := int(float64(mPages) * 0.5 * float64(ssdPage) * 0.8)
	tiny := []byte("pend-upd")
	perRec := 24 + len(tiny) // memtable accounting: header + body
	nPend := pendingBudget / perRec
	for i, tbl := range tbls {
		for j := 0; j < nPend; j++ {
			key := uint64((tables+i)*rows+j)*2 + 1
			if err := tbl.Insert(key, tiny); err != nil {
				return err
			}
			res.Updates++
			if (j+1)%group == 0 {
				if err := eng.Sync(); err != nil {
					return err
				}
			}
		}
	}
	if err := eng.Sync(); err != nil {
		return err
	}
	ingest := time.Since(t0)
	res.IngestWallMS = float64(ingest.Microseconds()) / 1e3
	res.IngestUpdSec = float64(res.Updates) / ingest.Seconds()

	// Migrate one table: its runs merge back into the heap through the
	// async pool (shadow batches write the base pages and every overflow
	// page concurrently), leaving the other tables' runs for recovery.
	t0 = time.Now()
	if err := tbls[0].Migrate(); err != nil {
		return err
	}
	res.MigrateWallMS = float64(time.Since(t0).Microseconds()) / 1e3
	res.MigrateIODepthPeak = eng.Metrics().Gauge("masm_io_depth_peak")

	if err := eng.HardStop(); err != nil {
		return err
	}
	closed = true

	// One un-timed recovery normalizes the directory (the post-crash WAL
	// replays into a checkpoint and a clean close syncs it), so every timed
	// leg afterwards does identical work: replay the checkpoint, rebuild
	// the surviving runs, reserve their extents.
	warm := opts
	warm.DirectIO = true
	if e2, werr := masm.OpenEngineDir(dir, warm); werr != nil {
		return werr
	} else if werr = e2.Close(); werr != nil {
		return werr
	}

	const reps = 3
	leg := func(mode string, workers int) (recoveryBenchLeg, error) {
		l := recoveryBenchLeg{Mode: mode, Workers: workers, Repetitions: reps}
		o := opts
		o.DirectIO = true
		o.RecoveryWorkers = workers
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			e2, err := masm.OpenEngineDir(dir, o)
			if err != nil {
				return l, err
			}
			ms := float64(time.Since(t0).Microseconds()) / 1e3
			if err := e2.Close(); err != nil {
				return l, err
			}
			if l.BestWallMS == 0 || ms < l.BestWallMS {
				l.BestWallMS = ms
			}
		}
		return l, nil
	}
	// Interleave the legs so cache and scheduler state stay symmetric.
	var serialBest, parallelBest recoveryBenchLeg
	for i := 0; i < reps; i++ {
		s, err := leg("serial", 1)
		if err != nil {
			return err
		}
		p, err := leg("parallel", 0)
		if err != nil {
			return err
		}
		if serialBest.BestWallMS == 0 || s.BestWallMS < serialBest.BestWallMS {
			serialBest = s
		}
		if parallelBest.BestWallMS == 0 || p.BestWallMS < parallelBest.BestWallMS {
			parallelBest = p
		}
	}
	serialBest.Repetitions, parallelBest.Repetitions = reps*reps, reps*reps
	res.Recovery = []recoveryBenchLeg{serialBest, parallelBest}
	if parallelBest.BestWallMS > 0 {
		res.Speedup = serialBest.BestWallMS / parallelBest.BestWallMS
	}

	fmt.Printf("recoverybench tables=%d rows=%d runs/table=%d (O_DIRECT recovery legs)\n",
		tables, rows, runsPerTable)
	fmt.Printf("  ingest    %8.1fms  (%d updates: %.0f upd/s)\n",
		res.IngestWallMS, res.Updates, res.IngestUpdSec)
	fmt.Printf("  migrate   %8.1fms  (async pool depth peak %d)\n",
		res.MigrateWallMS, res.MigrateIODepthPeak)
	fmt.Printf("  recovery  serial %8.1fms   parallel %8.1fms   speedup %.2fx\n",
		serialBest.BestWallMS, parallelBest.BestWallMS, res.Speedup)

	if jsonPath != "" {
		js, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}
	return nil
}
