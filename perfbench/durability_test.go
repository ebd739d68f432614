package main

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"masm"
	"masm/internal/chaos"
	"masm/internal/storage"
)

// TestAckedWritesSurvivePowerCut runs a short ingest over files wrapped in
// chaos.FaultBackend, cuts power (every byte not yet fsynced is
// discarded, which killing the process alone would not do: the OS cache
// keeps it), reopens the directory and requires every acknowledged write
// to be there.
func TestAckedWritesSurvivePowerCut(t *testing.T) {
	w := workloads["ingest"]
	b := &bench{name: "ingest", w: w, seed: 7, window: time.Second, work: t.TempDir()}
	b.bulk = makeBulk()
	b.setup = &model{setup: newOverlay()}
	var mu sync.Mutex
	var files []*chaos.FaultBackend
	b.wrap = func(name string, be storage.Backend) storage.Backend {
		fb := chaos.NewFaultBackend(be, name, 1)
		mu.Lock()
		files = append(files, fb)
		mu.Unlock()
		return fb
	}
	dir := filepath.Join(b.work, "db")
	in, err := b.start(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr := &loadRun{w: w, seed: b.seed, setup: b.setup}
	res, _ := lr.run(in.conns, b.window)

	mu.Lock()
	for _, fb := range files {
		fb.CrashNow()
	}
	mu.Unlock()
	in.stopServer()
	_ = in.eng.HardStop() // the files are already "off"; their close errors are expected

	m := &model{setup: b.setup.setup, writers: make([]*overlay, numParts)}
	acked := 0
	for i, r := range res {
		for _, p := range r.problems {
			t.Errorf("conn %d: %s", i, p)
		}
		m.writers[i] = r.own
		acked += len(r.lat[opWrite])
	}
	if acked == 0 {
		t.Fatal("no write was acknowledged before the power cut")
	}
	b.wrap = nil
	eng, err := masm.OpenEngineDir(dir, b.engineOptions(nil))
	if err != nil {
		t.Fatalf("reopen after power cut: %v", err)
	}
	defer eng.Close()
	for _, p := range verifyTables("after power cut", func(tb int, fn func(uint64, []byte) bool) error {
		tbl, err := eng.OpenTable(tableName(tb))
		if err != nil {
			return err
		}
		return tbl.Scan(0, ^uint64(0), fn)
	}, m) {
		t.Error(p)
	}
	if !t.Failed() {
		t.Logf("%d acknowledged writes, all present after the power cut", acked)
	}
}
