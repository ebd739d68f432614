package memtable

import (
	"testing"

	"masm/internal/update"
)

func rec(ts int64, key uint64) update.Record {
	return update.Record{TS: ts, Key: key, Op: update.Insert, Payload: []byte("xxxxxxxx")}
}

func TestAppendAndCapacity(t *testing.T) {
	b := New(100)
	r := rec(1, 1)
	sz := update.EncodedSize(&r)
	n := 0
	for b.Append(rec(int64(n+1), uint64(n))) {
		n++
	}
	if n != 100/sz {
		t.Fatalf("accepted %d records, want %d", n, 100/sz)
	}
	if b.Bytes() != n*sz {
		t.Fatalf("bytes = %d, want %d", b.Bytes(), n*sz)
	}
	b.SetCapacity(100 + sz)
	if !b.Append(rec(99, 99)) {
		t.Fatal("append after capacity grow failed")
	}
}

func TestDrainSortsAndEmpties(t *testing.T) {
	b := New(1 << 20)
	keys := []uint64{5, 1, 9, 3, 3}
	for i, k := range keys {
		b.Append(rec(int64(i+1), k))
	}
	out := b.Drain(MaxDrain)
	if len(out) != 5 {
		t.Fatalf("drained %d, want 5", len(out))
	}
	for i := 1; i < len(out); i++ {
		if update.Less(&out[i], &out[i-1]) {
			t.Fatalf("drain not sorted at %d", i)
		}
	}
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatal("buffer not empty after full drain")
	}
}

func TestDrainBeforeTS(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 10; i++ {
		b.Append(rec(int64(i), uint64(i)))
	}
	out := b.Drain(6)
	if len(out) != 5 {
		t.Fatalf("drained %d, want 5 (ts 1..5)", len(out))
	}
	if b.Len() != 5 {
		t.Fatalf("%d left, want 5", b.Len())
	}
}

func TestScanVisibilityFilter(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 10; i++ {
		b.Append(rec(int64(i), uint64(i)))
	}
	s := b.Scan(0, ^uint64(0), 6) // query ts 6 sees ts 1..5
	n := 0
	for {
		r, ok, flushed := s.Next()
		if flushed {
			t.Fatal("unexpected flush signal")
		}
		if !ok {
			break
		}
		if r.TS >= 6 {
			t.Fatalf("saw invisible record ts=%d", r.TS)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("scan saw %d records, want 5", n)
	}
}

func TestScanRangeFilter(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 100; i++ {
		b.Append(rec(int64(i), uint64(i*3)))
	}
	s := b.Scan(30, 60, 1000)
	n := 0
	for {
		r, ok, _ := s.Next()
		if !ok {
			break
		}
		if r.Key < 30 || r.Key > 60 {
			t.Fatalf("key %d outside [30,60]", r.Key)
		}
		n++
	}
	if n != 11 { // 30,33,...,60
		t.Fatalf("scan saw %d, want 11", n)
	}
}

// TestScanSurvivesResort leaves a Mem_scan open while several tails are
// merged into the buffer, some with keys equal to records the scan
// already returned; it must still return exactly its snapshot.
func TestScanSurvivesResort(t *testing.T) {
	b := New(1 << 20)
	var want []update.Record
	for i := 1; i <= 50; i++ {
		r := rec(int64(i), uint64(2*i))
		b.Append(r)
		want = append(want, r)
	}
	s := b.Scan(0, ^uint64(0), 51)
	sort0, _ := b.Epochs()
	var got []update.Record
	ts := int64(51)
	for done := false; !done; {
		for i := 0; i < 7; i++ {
			r, ok, flushed := s.Next()
			if flushed {
				t.Fatal("unexpected flush")
			}
			if !ok {
				done = true
				break
			}
			got = append(got, r)
		}
		// New updates land on both sides of the scan's position and on
		// keys it already returned; another query merges them in.
		for i := 0; i < 13; i++ {
			b.Append(rec(ts, uint64(ts*7%101)))
			ts++
		}
		b.Sort()
	}
	if sortN, _ := b.Epochs(); sortN-sort0 < 5 {
		t.Fatalf("only %d merges while the scan was open, want at least 5", sortN-sort0)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].TS != want[i].TS {
			t.Fatalf("record %d = (%d,%d), want (%d,%d)", i, got[i].Key, got[i].TS, want[i].Key, want[i].TS)
		}
	}
}

func TestScanDetectsFlush(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 20; i++ {
		b.Append(rec(int64(i), uint64(i)))
	}
	s := b.Scan(0, ^uint64(0), 21)
	for i := 0; i < 5; i++ {
		s.Next()
	}
	b.Drain(MaxDrain)
	_, ok, flushed := s.Next()
	if ok || !flushed {
		t.Fatalf("scan after drain: ok=%v flushed=%v, want flush signal", ok, flushed)
	}
	key, ts, started := s.Resume()
	if !started || key != 5 || ts != 5 {
		t.Fatalf("resume = (%d,%d,%v), want (5,5,true)", key, ts, started)
	}
	// Subsequent Next stays terminated.
	if _, ok, flushed := s.Next(); ok || flushed {
		t.Fatal("scan not terminated after flush signal")
	}
}

func TestEpochs(t *testing.T) {
	b := New(1 << 20)
	s0, f0 := b.Epochs()
	b.Append(rec(1, 1))
	b.Sort()
	s1, _ := b.Epochs()
	if s1 != s0+1 {
		t.Fatalf("sort epoch %d -> %d", s0, s1)
	}
	b.Sort() // already sorted: no bump
	if s2, _ := b.Epochs(); s2 != s1 {
		t.Fatalf("no-op sort bumped epoch")
	}
	b.Drain(MaxDrain)
	_, f1 := b.Epochs()
	if f1 != f0+1 {
		t.Fatalf("flush epoch %d -> %d", f0, f1)
	}
}

func TestScanEmptyBuffer(t *testing.T) {
	b := New(1024)
	s := b.Scan(0, ^uint64(0), 100)
	if _, ok, flushed := s.Next(); ok || flushed {
		t.Fatal("empty scan returned something")
	}
}

func TestDuplicateKeysOrderedByTS(t *testing.T) {
	b := New(1 << 20)
	b.Append(rec(3, 7))
	b.Append(rec(1, 7))
	b.Append(rec(2, 7))
	s := b.Scan(7, 7, 100)
	var last int64
	for i := 0; i < 3; i++ {
		r, ok, _ := s.Next()
		if !ok {
			t.Fatal("missing duplicate")
		}
		if r.TS <= last {
			t.Fatalf("duplicates out of ts order: %d after %d", r.TS, last)
		}
		last = r.TS
	}
}
