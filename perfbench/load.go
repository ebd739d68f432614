package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"masm/internal/proto"
)

// opKind is a request class. Every workload issues range scans and gets,
// the requests the end-to-end metrics time; its writes decide which layers
// do the work.
type opKind int

const (
	opWrite opKind = iota // Put, Delete or Modify, acknowledged after its group-commit fsync
	opRange               // a ~1%-of-table range scan
	opGet                 // a point read: Scan(k, k, limit 1)
	numKinds
)

// connMix weights the request classes of one closed-loop connection.
type connMix [numKinds]float64

// writeMix is the share of new-key Puts, Deletes and Modifies among
// writes; the rest are Puts to existing keys.
type writeMix struct{ newKey, del, modify float64 }

type workload struct {
	cacheBytes int64
	alpha      float64 // MaSM variant (Config.Alpha); 0 keeps the default
	preApplied bool    // analytics: cached runs applied in set-up
	conns      []connMix
	writes     writeMix
}

// readOnly reports whether no connection writes, so row counts stay at
// the set-up model's and every range scan can be checked exactly.
func (w workload) readOnly() bool {
	for _, m := range w.conns {
		if m[opWrite] > 0 {
			return false
		}
	}
	return true
}

// rangeKeys is the key width of a range scan: 1% of a table's rows.
const rangeKeys = rowsPerTable / 100 * keyStride

// The workloads; BENCHMARK.json says why each was chosen. Every one issues
// range scans and gets, the requests whose latency the end-to-end metrics
// report; the writes around them decide which layers do the work.
var workloads = map[string]workload{
	// The cache holds the whole run's updates, so nothing migrates.
	"ingest": {
		cacheBytes: 64 << 20,
		conns:      []connMix{{opWrite: 0.94, opRange: 0.01, opGet: 0.05}, {opWrite: 0.94, opRange: 0.01, opGet: 0.05}},
		writes:     writeMix{newKey: 0.08, del: 0.06, modify: 0.06},
	},
	"analytics": {
		cacheBytes: 64 << 20,
		preApplied: true,
		conns:      []connMix{{opRange: 0.20, opGet: 0.80}, {opRange: 0.20, opGet: 0.80}},
	},
	// The reader never writes, so every write waits out the group
	// committer's gathering window. With this small cache MaSM-2M (alpha
	// 2) migrates every two seconds or so, twice as often as alpha 1.
	"mixed": {
		cacheBytes: 256 << 10,
		alpha:      2,
		conns:      []connMix{{opWrite: 1}, {opRange: 0.30, opGet: 0.70}},
		writes:     writeMix{newKey: 0.08, del: 0.06, modify: 0.06},
	},
}

// conn is one closed-loop load connection.
type conn struct {
	c    *proto.Client
	slot *reqSlot // nil when untraced
}

// sample is one completed request: when it completed (since the window
// started), how long it took and how many rows it returned.
type sample struct {
	at, d time.Duration
	rows  int64
}

// connResult is what one connection measured and checked.
type connResult struct {
	lat       [numKinds][]sample
	rows      int64 // rows returned by range scans
	getRows   int64
	attempts  int64 // requests sent, refused ones included
	refused   int64 // backpressure refusals (each retried as a new attempt)
	errors    int64 // any other failed request
	userBytes int64 // key + payload bytes of acknowledged writes
	problems  []string
	own       *overlay // acknowledged writes of this connection's partition
	ranges    [][3]uint64
	gets      [][2]uint64
}

func (r *connResult) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// loadRun drives one workload's connections for d. Connection i owns key
// partition i for its writes; reads go anywhere.
type loadRun struct {
	w      workload
	seed   int64
	setup  *model        // set-up state; read-only while load runs
	counts *rangeCounter // non-nil when row counts are fixed
	tr     *tracer
	t0     time.Time // window start
}

func (lr *loadRun) run(conns []conn, d time.Duration) ([]*connResult, time.Duration) {
	res := make([]*connResult, len(conns))
	var wg sync.WaitGroup
	lr.t0 = time.Now()
	deadline := lr.t0.Add(d)
	for i := range conns {
		res[i] = &connResult{own: newOverlay()}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lr.drive(i, conns[i], res[i], deadline)
		}(i)
	}
	wg.Wait()
	return res, time.Since(lr.t0)
}

func (lr *loadRun) drive(i int, cn conn, r *connResult, deadline time.Time) {
	rng := rand.New(rand.NewSource(lr.seed*1_000_003 + int64(i)))
	zipf := rand.NewZipf(rng, 1.3, 1, numTables-1)
	mix := lr.w.conns[i]
	var total float64
	for _, p := range mix {
		total += p
	}
	m := &model{setup: lr.setup.setup, writers: make([]*overlay, numParts)}
	m.writers[i] = r.own
	ver := uint32(1_000_000 * (i + 1))
	for time.Now().Before(deadline) {
		t := int(zipf.Uint64())
		pick := rng.Float64() * total
		var kind opKind
		for k := opKind(0); k < numKinds; k++ {
			if mix[k] > 0 {
				kind = k // the last weighted class, should rounding run pick past the end
			}
			if pick < mix[k] {
				break
			}
			pick -= mix[k]
		}
		switch kind {
		case opWrite:
			ver++
			lr.write(cn, r, rng, m, i, t, ver)
		case opRange:
			lo := keyStride + uint64(rng.Int63n(int64(baseKey(rowsPerTable-1)-rangeKeys)))
			lr.scan(cn, r, t, lo, lo+rangeKeys-1)
		case opGet:
			lr.get(cn, r, t, baseKey(rng.Intn(rowsPerTable)))
		}
	}
}

// ownedKey picks a bulk-loaded key of partition part.
func ownedKey(rng *rand.Rand, part int) uint64 {
	n := rng.Intn(rowsPerTable/numParts)*numParts + part
	if n == 0 {
		n = numParts
	}
	return uint64(n) * keyStride
}

func (lr *loadRun) write(cn conn, r *connResult, rng *rand.Rand, m *model, part, t int, ver uint32) {
	key := ownedKey(rng, part)
	kind := byte('p')
	st, _ := m.state(t, key)
	switch x := rng.Float64(); {
	case x < lr.w.writes.newKey:
		key += 1 + uint64(rng.Intn(keyStride-1))
	case x < lr.w.writes.newKey+lr.w.writes.del && m.present(t, key):
		kind = 'd'
		st = rowState{deleted: true}
	case x < lr.w.writes.newKey+lr.w.writes.del+lr.w.writes.modify && m.present(t, key):
		kind = 'm'
		st.patched = true
		rng.Read(st.patch[:])
	}
	name := "client.put"
	var payload []byte
	switch kind {
	case 'p':
		st = rowState{ver: ver}
		payload = st.body(key)
	case 'd':
		name = "client.delete"
	case 'm':
		name = "client.modify"
		payload = st.patch[:]
	}
	table := tableName(t)
	start := time.Now()
	for {
		r.attempts++
		attempt := time.Now()
		id := lr.tr.beginReq(cn.slot)
		var err error
		switch kind {
		case 'p':
			err = cn.c.Put(table, key, payload)
		case 'd':
			err = cn.c.Delete(table, key)
		case 'm':
			err = cn.c.Modify(table, key, modifyOff, payload)
		}
		lr.tr.endReq(cn.slot, id, name, attempt)
		if err == nil {
			break
		}
		if proto.ErrBackpressure(err) {
			r.refused++
			time.Sleep(200 * time.Microsecond)
			continue
		}
		// The write may or may not have been applied: the model can no
		// longer say what the key holds, so the run is void.
		r.errors++
		r.problem("%s %s/%d: %v", name, table, key, err)
		return
	}
	r.lat[opWrite] = append(r.lat[opWrite], sample{at: time.Since(lr.t0), d: time.Since(start)})
	r.userBytes += 8 + int64(len(payload))
	r.own[t][key] = st
}

func (lr *loadRun) scan(cn conn, r *connResult, t int, lo, hi uint64) {
	if len(r.ranges) < 256 {
		r.ranges = append(r.ranges, [3]uint64{uint64(t), lo, hi})
	}
	var n int64
	prev, bad := uint64(0), ""
	r.attempts++
	start := time.Now()
	id := lr.tr.beginReq(cn.slot)
	err := cn.c.Scan(tableName(t), lo, hi, 0, func(k uint64, body []byte) bool {
		switch {
		case k < lo || k > hi:
			bad = fmt.Sprintf("key %d outside [%d,%d]", k, lo, hi)
		case n > 0 && k <= prev:
			bad = fmt.Sprintf("key %d after %d", k, prev)
		case !bodyNamesKey(k, body):
			bad = fmt.Sprintf("key %d carries a foreign body", k)
		}
		prev = k
		n++
		return bad == ""
	})
	lr.tr.endReq(cn.slot, id, "client.scan", start)
	if err != nil {
		r.errors++
		r.problem("scan %d/[%d,%d]: %v", t, lo, hi, err)
		return
	}
	r.lat[opRange] = append(r.lat[opRange], sample{at: time.Since(lr.t0), d: time.Since(start), rows: n})
	r.rows += n
	if bad != "" {
		r.problem("scan %d/[%d,%d]: %s", t, lo, hi, bad)
	} else if lr.counts != nil {
		if want := int64(lr.counts.count(t, lo, hi)); n != want {
			r.problem("scan %d/[%d,%d]: %d rows, model has %d", t, lo, hi, n, want)
		}
	}
}

func (lr *loadRun) get(cn conn, r *connResult, t int, key uint64) {
	if len(r.gets) < 2048 {
		r.gets = append(r.gets, [2]uint64{uint64(t), key})
	}
	found, bad := false, false
	r.attempts++
	start := time.Now()
	id := lr.tr.beginReq(cn.slot)
	err := cn.c.Scan(tableName(t), key, key, 1, func(k uint64, body []byte) bool {
		found = true
		bad = k != key || !bodyNamesKey(k, body)
		return false
	})
	lr.tr.endReq(cn.slot, id, "client.get", start)
	if err != nil {
		r.errors++
		r.problem("get %d/%d: %v", t, key, err)
		return
	}
	r.lat[opGet] = append(r.lat[opGet], sample{at: time.Since(lr.t0), d: time.Since(start)})
	if found {
		r.getRows++
	}
	switch {
	case bad:
		r.problem("get %d/%d returned a foreign row", t, key)
	case lr.counts != nil && found != lr.setup.present(t, key):
		r.problem("get %d/%d: found=%v, model disagrees", t, key, found)
	}
}
