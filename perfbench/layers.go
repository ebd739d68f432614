package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"masm"
	"masm/internal/obs"
)

// counters brackets the timed window with the engine's metric snapshots,
// the process CPU time and the allocation total.
type counters struct {
	m0, m1         obs.Snapshot
	cpu0, cpu1     time.Duration
	alloc0, alloc1 uint64
	busy0, busy1   float64 // machine-wide CPU ticks, steal included
	steal0, steal1 float64
}

func (c *counters) begin(eng *masm.Engine) {
	c.m0 = eng.Metrics()
	c.cpu0 = cpuTime()
	c.busy0, c.steal0 = cpuTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc0 = ms.TotalAlloc
}

// stealFrac is the share of the machine's busy CPU time during the window
// that the hypervisor gave to someone else.
func (c *counters) stealFrac() float64 {
	return ratio(c.steal1-c.steal0, c.busy1-c.busy0)
}

func (c *counters) end(eng *masm.Engine) {
	c.cpu1 = cpuTime()
	c.busy1, c.steal1 = cpuTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc1 = ms.TotalAlloc
	c.m1 = eng.Metrics()
}

// probeResult times direct calls into the root facade on the traced
// instance, after its window: the in-process cost of what the served path
// wraps.
type probeResult struct {
	applyUs, syncUs, fillNs, getUs []float64
	scanRows                       int64
	scanTime                       time.Duration
}

// probe calls Table.Insert, Engine.Sync, Engine.CacheFill + Table.CacheFill,
// Table.Scan (on the window's own ranges) and Table.Get (on its own keys).
// Its inserts re-put the body a key of the probe's partition already
// holds, so the model is unchanged.
func (b *bench) probe(in *instance, p *pass) (*probeResult, error) {
	pr := &probeResult{}
	var tables [numTables]*masm.Table
	for t := range tables {
		var err error
		if tables[t], err = in.eng.OpenTable(tableName(t)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(b.seed ^ 0x9e37))
	for i := 0; i < 1000; i++ {
		t := rng.Intn(numTables)
		key := ownedKey(rng, probePart)
		body := p.model.lookup(t, key)
		if body == nil {
			continue
		}
		// Direct inserts bypass the server's admission control; hold them
		// back the same way so they cannot overrun a small cache.
		for wait := time.Now(); tables[t].CacheFill() > 0.9 || in.eng.CacheFill() > 0.9; {
			if time.Since(wait) > 5*time.Second {
				return nil, errors.New("probe: cache did not drain")
			}
			in.eng.KickScheduler()
			time.Sleep(100 * time.Microsecond)
		}
		start := time.Now()
		if err := tables[t].Insert(key, body); err != nil {
			return nil, err
		}
		applied := time.Now()
		if err := in.eng.Sync(); err != nil {
			return nil, err
		}
		synced := time.Now()
		_ = in.eng.CacheFill() + tables[t].CacheFill()
		pr.applyUs = append(pr.applyUs, float64(applied.Sub(start))/1e3)
		pr.syncUs = append(pr.syncUs, float64(synced.Sub(applied))/1e3)
		pr.fillNs = append(pr.fillNs, float64(time.Since(synced)))
	}
	for _, r := range p.conns {
		for _, rg := range r.ranges {
			start := time.Now()
			err := tables[rg[0]].Scan(rg[1], rg[2], func(uint64, []byte) bool {
				pr.scanRows++
				return true
			})
			pr.scanTime += time.Since(start)
			if err != nil {
				return nil, err
			}
		}
		for _, g := range r.gets {
			start := time.Now()
			if _, _, err := tables[g[0]].Get(g[1]); err != nil {
				return nil, err
			}
			pr.getUs = append(pr.getUs, float64(time.Since(start))/1e3)
		}
	}
	return pr, nil
}

// spanIndex groups the traced window's spans for the per-layer metrics.
type spanIndex struct {
	byName  map[string][]span
	byReq   map[int64][]span // socket spans by request
	reqName map[int64]string // client span name by request
	client  []span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]span{}, byReq: map[int64][]span{}, reqName: map[int64]string{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		switch {
		case strings.HasPrefix(s.Name, "client."):
			ix.client = append(ix.client, s)
			ix.reqName[s.Req] = s.Name
		case strings.HasPrefix(s.Name, "net.") && s.Req != 0:
			ix.byReq[s.Req] = append(ix.byReq[s.Req], s)
		}
	}
	return ix
}

func (ix *spanIndex) total(name string, f func(s span) float64) float64 {
	var sum float64
	for _, s := range ix.byName[name] {
		sum += f(s)
	}
	return sum
}

func dur(s span) float64  { return float64(s.End - s.Start) }
func size(s span) float64 { return float64(s.Bytes) }
func one(span) float64    { return 1 }

// covered is the length of the union of spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		if x[0] > end {
			end = x[0]
		}
		total += x[1] - end
		end = x[1]
	}
	return total
}

func isWrite(name string) bool {
	return name == "client.put" || name == "client.delete" || name == "client.modify"
}

// syncSplit splits each write request's server-side time around the
// wal.log fsync that covered it: pre = end of the request frame's read to
// the start of that fsync (admission, apply and the gather window); post =
// the end of that fsync to the start of the reply write. The covering
// fsync is the last one that started after the read and ended before the
// reply.
func (ix *spanIndex) syncSplit() (pre, post []float64) {
	syncs := ix.byName["dev.wal.log.sync"]
	sort.Slice(syncs, func(i, j int) bool { return syncs[i].End < syncs[j].End })
	for req, spans := range ix.byReq {
		if !isWrite(ix.reqName[req]) {
			continue
		}
		readEnd, replyStart := int64(-1), int64(-1)
		for _, s := range spans {
			switch s.Name {
			case "net.server.read":
				readEnd = max(readEnd, s.End)
			case "net.server.write":
				if replyStart < 0 || s.Start < replyStart {
					replyStart = s.Start
				}
			}
		}
		if readEnd < 0 || replyStart < readEnd {
			continue
		}
		i := sort.Search(len(syncs), func(i int) bool { return syncs[i].End > replyStart }) - 1
		if i < 0 || syncs[i].Start < readEnd {
			continue
		}
		pre = append(pre, float64(syncs[i].Start-readEnd)/1e3)
		post = append(post, float64(replyStart-syncs[i].End)/1e3)
	}
	return pre, post
}

// perLayer computes the per-layer metrics of the traced pass; plain is the
// untraced pass of the same workload and seed.
func (p *pass) perLayer(tr *tracer, plain *pass) map[string]metric {
	tr.mu.Lock()
	ix := indexSpans(tr.spans)
	tr.mu.Unlock()
	c, pr := &p.counters, p.probe
	m0, m1 := c.m0, c.m1
	secs := p.elapsed.Seconds()
	ops := p.ops()
	writes := p.count(opWrite)
	writeAttempts := writes + p.sum(func(r *connResult) int64 { return r.refused })
	rows := p.sum(func(r *connResult) int64 { return r.rows + r.getRows })
	userBytes := p.sum(func(r *connResult) int64 { return r.userBytes })
	attempts := p.sum(func(r *connResult) int64 { return r.attempts })
	failed := p.sum(func(r *connResult) int64 { return r.refused + r.errors })

	var readBytes float64
	for req, spans := range ix.byReq {
		if n := ix.reqName[req]; n == "client.scan" || n == "client.get" {
			for _, s := range spans {
				if s.Name == "net.server.write" {
					readBytes += size(s)
				}
			}
		}
	}
	var selfUs []float64
	for _, s := range ix.client {
		selfUs = append(selfUs, float64(dur(s)-float64(covered(ix.byReq[s.Req], s.Start, s.End)))/1e3)
	}
	pre, post := ix.syncSplit()
	var migMs, devSpans []float64
	for _, s := range ix.byName["engine.migration"] {
		migMs = append(migMs, dur(s)/1e6)
	}
	var dev []span
	for name, spans := range ix.byName {
		if strings.HasPrefix(name, "dev.") {
			dev = append(dev, spans...)
		}
	}
	for _, s := range ix.byName["dev.wal.log.sync"] {
		devSpans = append(devSpans, dur(s)/1e3)
	}
	var window int64
	if len(ix.client) > 0 {
		lo, hi := ix.client[0].Start, ix.client[0].End
		for _, s := range ix.client {
			lo, hi = min(lo, s.Start), max(hi, s.End)
		}
		window = hi - lo
	}
	walSyncs := counterDelta(m0, m1, "masm_wal_syncs")
	groups := histDelta(m0, m1, "masm_wal_group_size")
	plainOps := plain.ops() / plain.elapsed.Seconds()

	return map[string]metric{
		"proto.client_writes_per_op": {ratio(ix.total("net.client.write", one), ops), "count"},
		"proto.server_reads_per_op":  {ratio(ix.total("net.server.read", one), ops), "count"},
		"proto.server_writes_per_op": {ratio(ix.total("net.server.write", one), ops), "count"},
		"proto.wire_bytes_per_row":   {ratio(readBytes, rows), "B"},
		"proto.socket_us_per_op":     {ratio(ix.total("net.client.write", dur)+ix.total("net.server.write", dur), ops) / 1e3, "us"},
		"proto.client_self_us_p50":   {quantile(selfUs, 0.5), "us"},

		"server.group_size_mean":       {groups.Mean(), "count"},
		"server.pre_sync_us_p50":       {quantile(pre, 0.5), "us"},
		"server.post_sync_us_p50":      {quantile(post, 0.5), "us"},
		"server.rejects_per_1k_writes": {ratio(1000*counterDelta(m0, m1, "masm_server_backpressure_rejects"), writeAttempts), "count"},
		"server.commit_sync_us_p50":    {float64(histDelta(m0, m1, "masm_server_commit_wait_ns").Quantile(0.5)) / 1e3, "us"},

		"engine.apply_us_p50":                {quantile(pr.applyUs, 0.5), "us"},
		"engine.sync_us_p50":                 {quantile(pr.syncUs, 0.5), "us"},
		"engine.cachefill_ns":                {quantile(pr.fillNs, 0.5), "ns"},
		"engine.scan_rows_per_s":             {ratio(float64(pr.scanRows), pr.scanTime.Seconds()), "1/s"},
		"engine.get_us_p50":                  {quantile(pr.getUs, 0.5), "us"},
		"masm.runs_per_table":                {gaugeMean(m1, "masm_run_count"), "count"},
		"masm.merge_cmp_per_row":             {ratio(counterDelta(m0, m1, "masm_merge_comparisons"), counterDelta(m0, m1, "masm_merge_records")), "count"},
		"masm.memtable_drains_per_1k_writes": {ratio(1000*counterDelta(m0, m1, "masm_memtable_drains"), writes), "count"},
		"masm.ssd_bytes_per_user_byte":       {ratio(counterDelta(m0, m1, "masm_ssd_bytes_written"), userBytes), "ratio"},
		"masm.migrations":                    {counterDelta(m0, m1, "masm_migrations"), "count"},
		"masm.migration_ms_p50":              {quantile(migMs, 0.5), "ms"},

		"wal.syncs_per_write": {ratio(walSyncs, writes), "count"},
		"wal.sync_us_p50":     {float64(histDelta(m0, m1, "masm_wal_sync_nanos").Quantile(0.5)) / 1e3, "us"},
		"wal.inline_syncs":    {walSyncs - float64(groups.Count), "count"},

		"dev.wal_fsync_us_p50":                  {quantile(devSpans, 0.5), "us"},
		"dev.data_bytes_read_per_row":           {ratio(ix.total("dev.main.data.read", size), rows), "B"},
		"dev.cache_bytes_written_per_user_byte": {ratio(ix.total("dev.cache.runs.write", size), userBytes), "ratio"},
		"dev.data_bytes_written_per_user_byte":  {ratio(ix.total("dev.main.data.write", size), userBytes), "ratio"},
		"dev.busy_frac":                         {ratio(float64(covered(dev, 0, 1<<62)), float64(window)), "ratio"},
		"dev.iopool_ops":                        {counterDelta(m0, m1, "masm_io_ops"), "count"},
		"dev.iopool_batches":                    {counterDelta(m0, m1, "masm_io_batches"), "count"},

		"proc.cpu_us_per_op":      {ratio(float64(c.cpu1-c.cpu0)/1e3, ops), "us"},
		"proc.alloc_bytes_per_op": {ratio(float64(c.alloc1-c.alloc0), ops), "B"},
		"load.failed_frac":        {ratio(failed, attempts), "ratio"},
		"trace.overhead_frac":     {1 - ratio(ops/secs, plainOps), "ratio"},
	}
}
