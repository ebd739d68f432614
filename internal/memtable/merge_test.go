package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"masm/internal/update"
)

// tagged builds a record whose payload carries id, so that records with
// equal (key, ts) stay distinguishable and their order can be pinned.
func tagged(id int, key uint64, ts int64) update.Record {
	return update.Record{TS: ts, Key: key, Op: update.Insert, Payload: []byte(strconv.Itoa(id))}
}

func stableSorted(recs []update.Record) {
	sort.SliceStable(recs, func(i, j int) bool { return update.Less(&recs[i], &recs[j]) })
}

func sameOrder(got, want []update.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Payload) != string(want[i].Payload) {
			return fmt.Errorf("record %d is id %s (key %d ts %d), want id %s (key %d ts %d)",
				i, got[i].Payload, got[i].Key, got[i].TS, want[i].Payload, want[i].Key, want[i].TS)
		}
	}
	return nil
}

// TestIncrementalSortMatchesStableSort drives random interleavings of
// Append, Restore, Drain and ScanPred against a shadow slice that is
// ordered the way the buffer used to be: sort.SliceStable over the whole
// slice before every scan and drain. Keys and timestamps come from narrow
// domains so that equal (key, ts) pairs are common; after every sort the
// buffer must hold exactly the shadow's permutation, ties included.
func TestIncrementalSortMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(1 << 30)
		var shadow []update.Record
		id := 0
		fresh := func() update.Record {
			id++
			return tagged(id, uint64(rng.Intn(24)), int64(rng.Intn(12)))
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				for n := 1 + rng.Intn(20); n > 0; n-- {
					r := fresh()
					if !b.Append(r) {
						t.Fatalf("seed %d step %d: buffer full", seed, step)
					}
					shadow = append(shadow, r)
				}
			case op < 6:
				recs := make([]update.Record, 1+rng.Intn(30))
				for i := range recs {
					recs[i] = fresh()
				}
				b.Restore(recs)
				shadow = append(shadow, recs...)
			case op < 7:
				bound := int64(rng.Intn(14))
				out := b.Drain(bound)
				stableSorted(shadow)
				var wantOut, rest []update.Record
				for _, r := range shadow {
					if r.TS < bound {
						wantOut = append(wantOut, r)
					} else {
						rest = append(rest, r)
					}
				}
				shadow = rest
				if err := sameOrder(out, wantOut); err != nil {
					t.Fatalf("seed %d step %d: drained: %v", seed, step, err)
				}
				if err := sameOrder(b.recs, shadow); err != nil {
					t.Fatalf("seed %d step %d: after drain: %v", seed, step, err)
				}
			default:
				lo := uint64(rng.Intn(24))
				hi := lo + uint64(rng.Intn(12))
				qts := int64(rng.Intn(14))
				var pred *update.Pred
				if rng.Intn(2) == 0 {
					k := uint64(rng.Intn(24))
					pred = update.NewPred([]update.KeyRange{{Lo: k, Hi: k + 4}})
				}
				s := b.ScanPred(lo, hi, qts, pred)
				stableSorted(shadow)
				if err := sameOrder(b.recs, shadow); err != nil {
					t.Fatalf("seed %d step %d: after scan sort: %v", seed, step, err)
				}
				var want []update.Record
				for _, r := range shadow {
					if r.Key >= lo && r.Key <= hi && r.TS < qts && pred.Match(r.Key) {
						want = append(want, r)
					}
				}
				var got []update.Record
				for {
					r, ok, flushed := s.Next()
					if flushed {
						t.Fatalf("seed %d step %d: unexpected flush", seed, step)
					}
					if !ok {
						break
					}
					got = append(got, r)
				}
				if err := sameOrder(got, want); err != nil {
					t.Fatalf("seed %d step %d: scan [%d,%d]@%d: %v", seed, step, lo, hi, qts, err)
				}
			}
		}
	}
}

var scanSink *Scan

// BenchmarkScanAfterAppends times ScanPred on a buffer holding a sorted
// prefix plus a 16-record unsorted tail: roughly what one query sees on a
// write-hot table, where a few appends land between consecutive queries.
func BenchmarkScanAfterAppends(b *testing.B) {
	const tail = 16
	for _, n := range []int{1 << 10, 4 << 10} {
		b.Run(fmt.Sprintf("sorted=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			base := make([]update.Record, n+tail)
			for i := range base {
				base[i] = rec(int64(i+1), uint64(rng.Intn(1<<20)))
			}
			stableSorted(base[:n])
			buf := New(1 << 30)
			buf.recs = make([]update.Record, n+tail)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf.recs, base)
				buf.sorted = n
				b.StartTimer()
				scanSink = buf.ScanPred(1<<18, 1<<19, int64(n+tail+1), nil)
			}
		})
	}
}
