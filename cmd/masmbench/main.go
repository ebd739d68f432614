// Command masmbench regenerates the tables and figures of the paper's
// evaluation (§4) on the simulated devices and prints them as text tables.
//
// Usage:
//
//	masmbench -list
//	masmbench -exp fig9
//	masmbench -exp all -short
//	masmbench -exp fig12 -table 128MB -cache 8MB
//	masmbench -durabench -backend file -rows 200000
//	masmbench -durabench -rows 60000 -json BENCH_6.json
//	masmbench -mergebench -json BENCH_3.json
//	masmbench -chaos -seed 1 -steps 20000
//
// The paper experiments always run on the simulated in-memory backend —
// their figures are virtual-time measurements and do not depend on the
// host. -durabench instead measures host wall-clock: update ingestion
// with group commit on the chosen backend (-backend sim|file), and, for
// the file backend, a hard stop plus full directory recovery followed
// by the migration crash-recovery comparison (BENCH_6: in-place
// baseline vs shadow paging).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"masm"
	"masm/internal/bench"
	"masm/internal/chaos"
)

func main() {
	var (
		expID     = flag.String("exp", "all", "experiment ID to run, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		short     = flag.Bool("short", false, "use the reduced geometry")
		tableSz   = flag.String("table", "", "override table size (e.g. 256MB)")
		cacheSz   = flag.String("cache", "", "override SSD cache size (e.g. 16MB)")
		seed      = flag.Int64("seed", 1, "random seed")
		rows      = flag.Int("rows", 200_000, "durabench/tenantbench: loaded rows (per table for tenantbench)")
		duraBnc   = flag.Bool("durabench", false, "run the durable-backend wall-clock benchmark instead of a paper experiment")
		backend   = flag.String("backend", "file", "durabench: storage backend (sim or file)")
		dir       = flag.String("dir", "", "durabench: database directory for the file backend (default: a fresh temp dir)")
		keepDir   = flag.Bool("keepdir", false, "durabench: keep the benchmark's temp directories instead of removing them (printed for inspection)")
		mergeBnc  = flag.Bool("mergebench", false, "run the merge-engine wall-clock microbenchmark (heap vs loser tree) instead of a paper experiment")
		mergeRec  = flag.Int("mergerecords", 1<<20, "mergebench: records per measurement")
		metrics   = flag.String("metricsout", "", "mergebench/tenantbench: write a reconciled JSON metrics snapshot to this path")
		jsonOut   = flag.String("json", "default", "mergebench/tenantbench/durabench: machine-readable output path; 'default' selects BENCH_3.json / BENCH_4.json / BENCH_6.json per mode, empty skips the file")
		tenantBnc = flag.Bool("tenantbench", false, "run the multi-tenant shared-cache benchmark (one engine, N tables, one SSD vs N private caches) instead of a paper experiment")
		tenants   = flag.Int("tenants", 6, "tenantbench: number of tables sharing the engine")
		tenantUpd = flag.Int("updates", 60_000, "tenantbench: updates across all tenants")
		queryBnc  = flag.Bool("querybench", false, "run the streaming-query pushdown benchmark (zone-map pruning + predicate pushdown vs naive scan-then-filter, plus plan-cache reuse) instead of a paper experiment")
		queryUpd  = flag.Int("queryupdates", 40_000, "querybench: random updates applied before measuring (materializes SSD runs)")
		chaosBnc  = flag.Bool("chaos", false, "run the deterministic chaos scenario runner (seeded whole-engine simulation with fault injection and a model-checked oracle) instead of a paper experiment")
		chaosStep = flag.Int("steps", 20_000, "chaos: scenario length in operations")
		chaosOut  = flag.String("chaosout", "", "chaos: on an oracle failure, also write seed + shrunk trace + repro test to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		return
	}
	if *duraBnc {
		if err := duraBench(*backend, *dir, *rows, *seed, *keepDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The migration crash-recovery comparison (in-place baseline vs
		// shadow paging) needs the file backend's hard stop + directory
		// recovery; it emits BENCH_6.json.
		if *backend == "file" {
			out := *jsonOut
			if out == "default" {
				out = "BENCH_6.json"
			}
			if err := migCrashBench(*rows, *seed, out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// The wall-clock I/O pass comparison (async migration I/O,
			// serial vs parallel recovery) emits BENCH_8.json.
			out8 := ""
			if *jsonOut != "" {
				out8 = "BENCH_8.json"
			}
			if err := recoveryBench(*rows, *seed, *keepDir, out8); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if *mergeBnc {
		out := *jsonOut
		if out == "default" {
			out = "BENCH_3.json"
		}
		if _, err := bench.MergeBench(os.Stdout, out, *metrics, *seed, *mergeRec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *queryBnc {
		out := *jsonOut
		if out == "default" {
			out = "BENCH_9.json"
		}
		if err := queryBench(*rows, *queryUpd, *seed, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *chaosBnc {
		if err := chaosRun(*seed, *chaosStep, *chaosOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *tenantBnc {
		out := *jsonOut
		if out == "default" {
			out = "BENCH_4.json"
		}
		if _, err := bench.TenantBench(os.Stdout, out, *metrics, *seed, *tenants, *rows, *tenantUpd); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	opts := bench.DefaultOptions()
	if *short {
		opts = bench.ShortOptions()
	}
	opts.Seed = *seed
	if *tableSz != "" {
		opts.TableBytes = mustSize(*tableSz)
	}
	if *cacheSz != "" {
		opts.CacheBytes = mustSize(*cacheSz)
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		t0 := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		res.Format(os.Stdout)
		fmt.Printf("(%s wall time: %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}

// chaosRun drives the deterministic chaos harness (internal/chaos): a
// seeded multi-table scenario over fault-injecting storage, every
// surviving state checked against the model oracle. The run is
// bit-deterministic: the same seed and steps always produce the same
// final state hash, which CI verifies by running it twice.
func chaosRun(seed int64, steps int, outPath string) error {
	t0 := time.Now()
	res, err := chaos.Run(chaos.Options{Seed: seed, Steps: steps, Verbose: os.Stdout})
	if err != nil {
		return err
	}
	if res.Failure != nil {
		var b strings.Builder
		fmt.Fprintf(&b, "chaos FAILURE (reproduce with -chaos -seed %d -steps %d)\n%v\n", seed, steps, res.Failure)
		fmt.Fprintf(&b, "\nshrunk trace (%d of %d ops):\n", len(res.ShrunkTrace), len(res.Trace))
		for _, op := range res.ShrunkTrace {
			fmt.Fprintf(&b, "  %v\n", op)
		}
		fmt.Fprintf(&b, "\nrepro test:\n%s", res.Repro)
		fmt.Fprint(os.Stderr, b.String())
		if outPath != "" {
			if werr := os.WriteFile(outPath, []byte(b.String()), 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, werr)
			}
		}
		return fmt.Errorf("chaos: oracle failure at step %d (seed %d)", res.Failure.Step, seed)
	}
	fmt.Printf("chaos OK: seed=%d steps=%d crashes=%d reopens=%d final state hash=%016x (%v wall)\n",
		seed, res.Steps, res.Crashes, res.Reopens, res.Hash, time.Since(t0).Round(time.Millisecond))
	return nil
}

func mustSize(s string) int64 {
	mult := int64(1)
	u := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, u[:len(u)-2]
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, u[:len(u)-2]
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, u[:len(u)-2]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad size %q: %v\n", s, err)
		os.Exit(1)
	}
	return n * mult
}

// duraBench measures host wall-clock behaviour of the durable storage
// subsystem: bulk load, grouped update ingestion with a Sync per group
// (the durability boundary), a full scan, and — on the file backend — a
// genuine hard stop followed by directory recovery. The sim backend runs
// the identical workload for comparison, which isolates what fsync and
// real file I/O cost on this host.
func duraBench(backend, dir string, rows int, seed int64, keep bool) error {
	keys := make([]uint64, rows)
	bodies := make([][]byte, rows)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = []byte(fmt.Sprintf("fact-%07d: qty=01 price=0099 status=SHIPPED", keys[i]))
	}
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 8 << 20

	// The live handle and the temp directory are cleaned up on every exit
	// path — an error mid-ingest must not strand open descriptors or a
	// half-built temp dir — unless -keepdir asks for the directory to
	// survive for inspection.
	var db *masm.DB
	var err error
	ownDir := false
	defer func() {
		if db != nil {
			db.Close()
		}
		if !ownDir {
			return
		}
		if keep {
			fmt.Printf("  (keeping working directory %s)\n", dir)
			return
		}
		os.RemoveAll(dir)
	}()
	t0 := time.Now()
	switch backend {
	case "sim":
		db, err = masm.Open(cfg, keys, bodies)
	case "file":
		if dir == "" {
			if dir, err = os.MkdirTemp("", "masm-durabench-*"); err != nil {
				return err
			}
			ownDir = true
		}
		db, err = masm.OpenDir(dir, masm.DirOptions{Config: cfg, Keys: keys, Bodies: bodies})
	default:
		return fmt.Errorf("unknown backend %q (want sim or file)", backend)
	}
	if err != nil {
		db = nil
		return err
	}
	loadTime := time.Since(t0)

	const group = 64
	nUpdates := rows / 2
	rng := rand.New(rand.NewSource(seed))
	t0 = time.Now()
	for i := 0; i < nUpdates; i++ {
		key := uint64(rng.Intn(rows*2))*2 + 1 // odd keys: inserts
		if err := db.Insert(key, bodies[i%len(bodies)]); err != nil {
			return err
		}
		if (i+1)%group == 0 {
			if err := db.Sync(); err != nil {
				return err
			}
		}
	}
	if err := db.Sync(); err != nil {
		return err
	}
	ingest := time.Since(t0)

	t0 = time.Now()
	var scanned int
	if err := db.Scan(0, ^uint64(0), func(uint64, []byte) bool { scanned++; return true }); err != nil {
		return err
	}
	scanTime := time.Since(t0)

	fmt.Printf("durabench backend=%s rows=%d\n", backend, rows)
	fmt.Printf("  load      %10v\n", loadTime.Round(time.Millisecond))
	fmt.Printf("  ingest    %10v  (%d updates, sync every %d: %.0f upd/s)\n",
		ingest.Round(time.Millisecond), nUpdates, group, float64(nUpdates)/ingest.Seconds())
	fmt.Printf("  scan      %10v  (%d rows)\n", scanTime.Round(time.Millisecond), scanned)

	if backend == "file" {
		t0 = time.Now()
		db2, err := db.Crash() // hard stop + full directory recovery
		if err != nil {
			db = nil // Crash hard-stopped the old handle either way
			return err
		}
		db = db2
		recovery := time.Since(t0)
		var after int
		if err := db2.Scan(0, ^uint64(0), func(uint64, []byte) bool { after++; return true }); err != nil {
			return err
		}
		fmt.Printf("  recovery  %10v  (hard stop + reopen; %d rows readable)\n",
			recovery.Round(time.Millisecond), after)
	}
	err = db.Close()
	db = nil
	return err
}
