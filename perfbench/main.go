// Command perfbench is the repository's served-path benchmark. It loads one
// seeded dataset into an in-process masmd (server.New over
// masm.OpenEngineDir, on a loopback listener), drives it with closed-loop
// proto.Client connections, checks every answer against a model of the
// data, and prints its metrics as one JSON object on the last line:
//
//	perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced and reports per-layer metrics computed from the
// traced run's spans and the engine's counters. The workloads are listed
// in load.go; run.sh builds and runs the command from a checkout. The
// package's tests (go test, in this directory) include a power-cut check
// that no acknowledged write is lost.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"masm"
	"masm/internal/proto"
	"masm/internal/server"
	"masm/internal/storage"
)

// Set-up and recovery are each timed several times per run and reported
// as medians, so one slow repetition does not move the result.
const (
	setups     = 5
	recoveries = 7
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: ingest, analytics or mixed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured window per run, seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for database files and span dumps")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{name: *name, w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, work: work, out: *out}
	res, report, err := b.run(*trace == 1)
	if report != nil {
		if blob, jerr := json.Marshal(report); jerr == nil {
			fmt.Println(string(blob))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one benchmark run: its inputs and where it keeps its files.
type bench struct {
	name   string
	w      workload
	seed   int64
	window time.Duration
	work   string
	out    string

	// wrap, when set, wraps the engine's files in untraced instances
	// (the durability test's fault injection).
	wrap func(name string, be storage.Backend) storage.Backend

	bulk     *bulkData
	setupOps [numTables][]setupOp
	setup    *model
	counts   *rangeCounter
}

// report is the human-facing detail printed before the result line.
type report struct {
	Env       envBlock          `json:"env"`
	Window    float64           `json:"window_s"`
	Samples   map[string]int    `json:"samples"`
	Tails     map[string]string `json:"tail_percentile"`
	Refused   int64             `json:"refused_attempts"`
	Errors    int64             `json:"failed_requests"`
	FailedPct float64           `json:"failed_frac"`
	Steal     float64           `json:"window_cpu_steal_frac"`
	Served    map[string]metric `json:"served,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

func (b *bench) run(traced bool) (*result, *report, error) {
	env, err := probeEnv(b.work)
	if err != nil {
		return nil, nil, err
	}
	env.Workload, env.Seed, env.RunSeconds = b.name, b.seed, int(b.window/time.Second)
	env.Tables, env.RowsPerTable, env.BodyBytes = numTables, rowsPerTable, bodyBytes
	env.MainDataMB = float64(numTables*rowsPerTable*bodyBytes) / (1 << 20)
	env.CacheBytes, env.Conns = b.w.cacheBytes, len(b.w.conns)
	rep := &report{Env: env}

	b.bulk = makeBulk()
	b.setup = &model{setup: newOverlay()}
	if b.w.preApplied {
		b.setupOps, b.setup.setup = makeSetupOps(b.seed)
	}
	if b.w.readOnly() {
		b.counts = newRangeCounter(b.setup)
	}

	if !traced {
		var setupTimes []float64
		var in *instance
		for i := 0; i < setups; i++ {
			if in != nil {
				in.close()
			}
			start := time.Now()
			in, err = b.start(filepath.Join(b.work, fmt.Sprintf("db%d", i)), nil)
			if err != nil {
				return nil, rep, err
			}
			setupTimes = append(setupTimes, time.Since(start).Seconds())
		}
		pass, err := b.measure(in, nil, rep)
		if err != nil {
			in.close()
			return nil, rep, err
		}
		rec, err := b.recover(in, pass, rep)
		if err != nil {
			return nil, rep, err
		}
		res := pass.result()
		if res.Correct {
			res.Metrics = pass.endToEnd(quantile(setupTimes, 0.5))
			rep.Served = pass.served(rec)
		}
		return res, rep, nil
	}

	// Traced mode: the same workload untraced, then traced, so the cost of
	// tracing itself is measured and reported.
	in, err := b.start(filepath.Join(b.work, "plain"), nil)
	if err != nil {
		return nil, rep, err
	}
	plain, err := b.measure(in, nil, rep)
	in.close()
	if err != nil {
		return nil, rep, err
	}
	if res := plain.result(); !res.Correct {
		return res, rep, nil
	}
	tr := newTracer()
	in, err = b.start(filepath.Join(b.work, "traced"), tr)
	if err != nil {
		return nil, rep, err
	}
	pass, err := b.measure(in, tr, rep)
	if err != nil {
		in.close()
		return nil, rep, err
	}
	if _, err := b.recover(in, pass, rep); err != nil {
		return nil, rep, err
	}
	res := pass.result()
	res.Attempted += plain.result().Attempted
	res.Failed += plain.result().Failed
	if res.Correct {
		res.Metrics = pass.perLayer(tr, plain)
		if err := tr.writeSpans(filepath.Join(b.out, "spans-"+b.name+".jsonl")); err != nil {
			return nil, rep, err
		}
	}
	return res, rep, nil
}

// instance is one running engine + server and the load connections.
type instance struct {
	dir    string
	eng    *masm.Engine
	sched  *masm.MigrationScheduler
	srv    *server.Server
	served chan error
	addr   string
	conns  []conn
}

func (b *bench) engineOptions(tr *tracer) masm.EngineDirOptions {
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = b.w.cacheBytes
	if b.w.alpha != 0 {
		cfg.Alpha = b.w.alpha
	}
	opts := masm.EngineDirOptions{Config: cfg, DataBytes: 1 << 30, WrapBackend: b.wrap}
	if tr != nil {
		opts.WrapBackend = tr.wrapBackend
	}
	return opts
}

// start is the timed set-up: engine create, bulk load, pre-applied
// updates, server start, connection handshakes and warm-up.
func (b *bench) start(dir string, tr *tracer) (in *instance, err error) {
	in = &instance{dir: dir}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if in.eng, err = masm.OpenEngineDir(dir, b.engineOptions(tr)); err != nil {
		return in, err
	}
	if tr != nil {
		in.eng.SetTraceSink(tr)
	}
	for t := 0; t < numTables; t++ {
		if _, err = in.eng.CreateTable(tableName(t), masm.TableOptions{Keys: b.bulk.keys, Bodies: b.bulk.bodies}); err != nil {
			return in, err
		}
	}
	if b.w.preApplied {
		if err = applySetupOps(in.eng, b.setupOps); err != nil {
			return in, err
		}
	}
	if in.sched, err = in.eng.StartMigrationScheduler(0); err != nil {
		return in, err
	}
	in.srv = server.New(in.eng, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return in, err
	}
	in.addr = ln.Addr().String()
	var l net.Listener = ln
	if tr != nil {
		l = tracedListener{ln, tr}
	}
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(l) }()
	for range b.w.conns {
		var cn conn
		if tr != nil {
			cn.c, cn.slot, err = tr.dial(in.addr)
		} else {
			cn.c, err = proto.Dial(in.addr)
		}
		if err != nil {
			return in, err
		}
		in.conns = append(in.conns, cn)
	}
	return in, b.warmUp(in)
}

// warmUp sends a few requests of every class on every connection. Its
// writes re-put the body a key already holds, so the model is unchanged.
func (b *bench) warmUp(in *instance) error {
	rng := rand.New(rand.NewSource(b.seed ^ 0x3a7))
	for i, cn := range in.conns {
		for j := 0; j < 32; j++ {
			t := rng.Intn(numTables)
			key := baseKey(rng.Intn(rowsPerTable))
			if err := cn.c.Scan(tableName(t), key, key, 1, func(uint64, []byte) bool { return false }); err != nil {
				return fmt.Errorf("warm-up get: %w", err)
			}
			if j%8 == 0 {
				if err := cn.c.Scan(tableName(t), key, key+rangeKeys-1, 0, func(uint64, []byte) bool { return true }); err != nil {
					return fmt.Errorf("warm-up scan: %w", err)
				}
			}
			if key = ownedKey(rng, i); b.setup.present(t, key) {
				if err := cn.c.Put(tableName(t), key, b.setup.lookup(t, key)); err != nil {
					return fmt.Errorf("warm-up put: %w", err)
				}
			}
		}
	}
	return nil
}

// stopServer closes the load connections and the server; the engine stays.
func (in *instance) stopServer() {
	for _, cn := range in.conns {
		cn.c.Close()
	}
	in.conns = nil
	if in.srv != nil {
		in.srv.Close()
		if in.served != nil {
			<-in.served
		}
		in.srv = nil
	}
}

// close shuts everything down cleanly and deletes the database.
func (in *instance) close() {
	in.stopServer()
	if in.eng != nil {
		in.eng.Close()
		in.eng = nil
	}
	os.RemoveAll(in.dir)
}

// pass is one measured window and what it checked.
type pass struct {
	conns    []*connResult
	elapsed  time.Duration
	model    *model
	problems []string
	counters counters
	probe    *probeResult
}

func (p *pass) result() *result {
	res := &result{Correct: len(p.problems) == 0, Metrics: map[string]metric{}}
	for _, r := range p.conns {
		res.Attempted += r.attempts - r.refused
		res.Failed += r.errors
	}
	if res.Attempted == 0 {
		res.Correct = false
		res.Attempted = 1
	}
	return res
}

// measure runs the timed window on a started instance, then checks the
// outcome: every answer during the window, a full read-back of every table
// over the wire against the model, and the engine's own invariants.
func (b *bench) measure(in *instance, tr *tracer, rep *report) (*pass, error) {
	lr := &loadRun{w: b.w, seed: b.seed, setup: b.setup, counts: b.counts, tr: tr}
	p := &pass{}
	p.counters.begin(in.eng)
	if tr != nil {
		tr.active.Store(true)
	}
	p.conns, p.elapsed = lr.run(in.conns, b.window)
	if tr != nil {
		tr.active.Store(false)
	}
	p.counters.end(in.eng)

	p.model = &model{setup: b.setup.setup, writers: make([]*overlay, numParts)}
	for i, r := range p.conns {
		p.model.writers[i] = r.own
		p.problems = append(p.problems, r.problems...)
	}
	if tr != nil {
		pr, err := b.probe(in, p)
		if err != nil {
			return nil, err
		}
		p.probe = pr
	}
	c, err := proto.Dial(in.addr)
	if err != nil {
		return nil, err
	}
	p.problems = append(p.problems, verifyTables("wire read-back", func(t int, fn func(uint64, []byte) bool) error {
		return c.Scan(tableName(t), 0, math.MaxUint64, 0, fn)
	}, p.model)...)
	c.Close()
	in.sched.Stop()
	if err := in.eng.CheckInvariants(); err != nil {
		p.problems = append(p.problems, "CheckInvariants: "+err.Error())
	}
	if err := in.eng.CheckMetrics(); err != nil {
		p.problems = append(p.problems, "CheckMetrics: "+err.Error())
	}
	p.fillReport(rep)
	return p, nil
}

// recover hard-stops the engine and times OpenEngineDir on its directory,
// then checks that every acknowledged write survived, adding what it finds
// to the pass's problems. The instance is gone afterwards.
func (b *bench) recover(in *instance, p *pass, rep *report) (float64, error) {
	defer os.RemoveAll(in.dir)
	in.stopServer()
	if err := in.eng.HardStop(); err != nil {
		return 0, fmt.Errorf("hard stop: %w", err)
	}
	in.eng = nil
	opts := b.engineOptions(nil)
	var times []float64
	var eng *masm.Engine
	for i := 0; i < recoveries; i++ {
		start := time.Now()
		var err error
		if eng, err = masm.OpenEngineDir(in.dir, opts); err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < recoveries-1 {
			if err := eng.HardStop(); err != nil {
				return 0, fmt.Errorf("hard stop: %w", err)
			}
		}
	}
	problems := verifyTables("after recovery", func(t int, fn func(uint64, []byte) bool) error {
		tbl, err := eng.OpenTable(tableName(t))
		if err != nil {
			return err
		}
		return tbl.Scan(0, math.MaxUint64, fn)
	}, p.model)
	if err := eng.CheckInvariants(); err != nil {
		problems = append(problems, "CheckInvariants after recovery: "+err.Error())
	}
	if err := eng.Close(); err != nil {
		problems = append(problems, "close after recovery: "+err.Error())
	}
	p.problems = append(p.problems, problems...)
	rep.Problems = append(rep.Problems, problems...)
	return quantile(times, 0.5), nil
}

// verifyTables scans every table in full and compares it with the model:
// keys strictly increasing, every row expected with its exact body, and
// the row count equal to the model's.
func verifyTables(what string, scan func(t int, fn func(uint64, []byte) bool) error, m *model) []string {
	var problems []string
	for t := 0; t < numTables; t++ {
		n, prev, bad := 0, uint64(0), ""
		err := scan(t, func(k uint64, body []byte) bool {
			want := m.lookup(t, k)
			switch {
			case n > 0 && k <= prev:
				bad = fmt.Sprintf("key %d after %d", k, prev)
			case want == nil:
				bad = fmt.Sprintf("key %d present, model has it absent", k)
			case !bytes.Equal(body, want):
				bad = fmt.Sprintf("key %d has a stale or foreign body", k)
			}
			prev = k
			n++
			return bad == ""
		})
		switch want := m.rowCount(t); {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s %s: %v", what, tableName(t), err))
		case bad != "":
			problems = append(problems, fmt.Sprintf("%s %s: %s", what, tableName(t), bad))
		case n != want:
			problems = append(problems, fmt.Sprintf("%s %s: %d rows, model has %d", what, tableName(t), n, want))
		}
	}
	return problems
}

// samples merges every connection's samples of one class in completion
// order.
func (p *pass) samples(k opKind) []sample {
	var ss []sample
	for _, r := range p.conns {
		ss = append(ss, r.lat[k]...)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].at < ss[j].at })
	return ss
}

func (p *pass) sum(f func(r *connResult) int64) float64 {
	var n int64
	for _, r := range p.conns {
		n += f(r)
	}
	return float64(n)
}

func (p *pass) ops() float64 {
	return p.count(opWrite) + p.count(opRange) + p.count(opGet)
}

func (p *pass) count(k opKind) float64 {
	return p.sum(func(r *connResult) int64 { return int64(len(r.lat[k])) })
}

func (p *pass) fillReport(rep *report) {
	rep.Window = p.elapsed.Seconds()
	rep.Samples, rep.Tails = map[string]int{}, map[string]string{}
	for k, name := range []string{"write", "range", "get"} {
		n := int(p.count(opKind(k)))
		rep.Samples[name] = n
		rep.Tails[name] = tailPercentile(n)
	}
	rep.Refused = int64(p.sum(func(r *connResult) int64 { return r.refused }))
	rep.Errors = int64(p.sum(func(r *connResult) int64 { return r.errors }))
	rep.FailedPct = ratio(float64(rep.Refused+rep.Errors), p.sum(func(r *connResult) int64 { return r.attempts }))
	rep.Problems = append(rep.Problems, p.problems...)
	rep.Steal = p.counters.stealFrac()
}

// endToEnd computes the metrics BENCHMARK.json bounds: set-up time, the
// median latency of gets and of range scans, and peak memory. Each latency
// is the median over parts of the window (see steadyQuantile), so a burst
// of outside interference in one part does not move it.
func (p *pass) endToEnd(setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"get_p50_us":   {steadyQuantile(p.samples(opGet), 0.50, time.Microsecond), "us"},
		"range_p50_ms": {steadyQuantile(p.samples(opRange), 0.50, time.Millisecond), "ms"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
}

// served computes the rest of what a client of the server sees. These
// move with the machine's load (hypervisor steal time and shared-disk
// fsync cost) by more than any bound a regression check could use, so
// they are reported beside the result rather than in it.
func (p *pass) served(recoveryS float64) map[string]metric {
	w, rg, g := p.samples(opWrite), p.samples(opRange), p.samples(opGet)
	return map[string]metric{
		"write_ops_per_s": {steadyRate(w, p.elapsed, func(sample) float64 { return 1 }), "1/s"},
		"write_p50_us":    {steadyQuantile(w, 0.50, time.Microsecond), "us"},
		"write_p99_us":    {steadyQuantile(w, 0.99, time.Microsecond), "us"},
		"scan_rows_per_s": {steadyRate(rg, p.elapsed, func(s sample) float64 { return float64(s.rows) }), "1/s"},
		"range_p99_ms":    {steadyQuantile(rg, 0.99, time.Millisecond), "ms"},
		"get_p99_us":      {steadyQuantile(g, 0.99, time.Microsecond), "us"},
		"recovery_s":      {recoveryS, "s"},
	}
}
