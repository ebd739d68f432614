package masm

// Durable, file-backed engines. NewEngine keeps everything in memory on
// the simulated devices; OpenEngineDir lays the same catalog out over real
// OS files in a directory, so committed state survives a process exit
// (clean or not) and is fully recovered by the next OpenEngineDir on the
// same directory. The virtual-time cost model still runs — the file
// backend changes where the bytes live, not how their I/O is priced — so
// the same workloads produce the same simulated timings on either backend.
//
// Directory layout:
//
//	main.data   every table's clustered heap, one contiguous region per
//	            table (fixed-size pages)
//	cache.runs  the shared SSD update cache: WAL-described materialized
//	            runs from all tables, partitioned by the byte-budget
//	            allocator
//	wal.log     the shared redo log (CRC-framed, torn-tail tolerant;
//	            format v3 records carry the owning table's id)
//	MANIFEST    checksummed catalog: per-table geometry and page
//	            references, written atomically (tmp + rename) at creation,
//	            at CreateTable/DropTable, and at every migration
//	            checkpoint. Version-1 manifests (single-table, pre-catalog)
//	            are upgraded transparently on first open.
//
// Durability contract: an update survives a crash once Sync (or a
// transaction Commit followed by Sync, or enough later traffic to force
// its group-commit batch) has returned. The write-ahead ordering is
// enforced by wal.Hooks: run data is fsynced before its flush/merge
// record, and the table pages plus MANIFEST are checkpointed before a
// migration-end record.
//
// OpenDir is the single-table wrapper: a one-table engine whose "default"
// table is returned as a DB. Directories it created before the catalog
// existed reopen through the v1-manifest upgrade path with identical
// contents.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	core "masm/internal/masm"
	"masm/internal/obs"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/storage/filedev"
	"masm/internal/table"
	"masm/internal/wal"
)

// DirOptions configures OpenDir.
type DirOptions struct {
	// Config is the engine configuration. A zero Config means
	// DefaultConfig. CacheBytes fixes the cache geometry when the
	// directory is created; on reopen the directory's own geometry wins
	// and CacheBytes is ignored. DisableRedoLog is rejected: the redo log
	// is the recovery mechanism.
	Config
	// Keys and Bodies bulk-load a newly created database (strictly
	// increasing keys, like Open). They are ignored when the directory
	// already holds a database.
	Keys   []uint64
	Bodies [][]byte
}

// EngineDirOptions configures OpenEngineDir.
type EngineDirOptions struct {
	// Config is the engine configuration; CacheBytes is the total shared
	// SSD cache. On reopen the directory's own cache geometry wins.
	Config
	// DataBytes is the total main.data capacity shared by every table's
	// heap region (the file is sparse, so unused capacity costs nothing).
	// Zero selects a default. On reopen the effective capacity is the
	// larger of this and the directory's, so a catalog can be grown.
	DataBytes int64
	// WrapBackend, when non-nil, wraps each storage file's backend as it is
	// opened, before the engine issues any I/O through it. name is the
	// file's name within the directory ("main.data", "cache.runs",
	// "wal.log", or — during recovery, for the checkpoint log that
	// atomically replaces wal.log — "wal.log.new"). It is the
	// fault-injection and instrumentation seam the deterministic chaos
	// harness (internal/chaos) uses to count writes and fsyncs, tear
	// writes, and cut power at chosen sync points; production opens leave
	// it nil.
	WrapBackend func(name string, be storage.Backend) storage.Backend
	// MetricsAddr, when non-empty, serves the engine's observability plane
	// over HTTP on that address ("127.0.0.1:0" picks a free port):
	// /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof.
	// The endpoint is strictly opt-in and read-only; it shares the metric
	// registry's atomic snapshots and never touches engine locks or the
	// simulated timeline. The listener closes with the engine.
	MetricsAddr string
	// RecoveryWorkers bounds the concurrent run rebuilds during recovery.
	// Any value ≤ 0 selects the default (storage.DefaultIOWorkers). Every
	// value recovers bit-identical engine state and virtual times — the
	// rebuild scans move only real bytes, and their simulated cost is
	// charged serially in the same order either way — so the knob trades
	// wall-clock only.
	RecoveryWorkers int
	// IOWorkers bounds each batch of concurrent data-plane operations
	// (migration shadow-batch writes). Zero selects the default
	// (storage.DefaultIOWorkers).
	IOWorkers int
	// DirectIO opens the directory's files with O_DIRECT where the
	// filesystem supports it: aligned requests bypass the page cache,
	// unaligned ones silently take the buffered descriptor. Purely a
	// wall-clock knob — the simulated timeline never sees it.
	DirectIO bool
}

// defaultEngineDataBytes sizes main.data when EngineDirOptions.DataBytes
// is zero.
const defaultEngineDataBytes = 256 << 20

// File names inside a database directory.
const (
	dataFileName    = "main.data"
	cacheFileName   = "cache.runs"
	walFileName     = "wal.log"
	walTmpFileName  = "wal.log.new"
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	lockFileName    = "LOCK"
)

// logFileBytes is the redo-log capacity. The log is rewritten from its
// checkpoint at every reopen, and migrations truncate the live state it
// must describe, so a fixed generous region suffices for the prototype.
const logFileBytes = 256 << 20

// manifestMagic identifies a MaSM database directory manifest.
var manifestMagic = [8]byte{'M', 'a', 'S', 'M', 'd', 'i', 'r', '\x00'}

// Manifest format versions. Version 1 described exactly one table;
// version 2 describes the catalog. Version-1 manifests are upgraded in
// memory on read (becoming a one-table catalog) and rewritten as version
// 2 at the next manifest write.
const (
	manifestVersion    = 2
	manifestVersionOne = 1
)

var manifestCRCTable = crc32.MakeTable(crc32.Castagnoli)

// tableManifest is one table's durable catalog entry.
type tableManifest struct {
	Name string `json:"name"`
	ID   uint32 `json:"id"`
	// DataOff/DataBytes locate the table's heap region in main.data.
	DataOff   int64 `json:"data_off"`
	DataBytes int64 `json:"data_bytes"`
	// CacheBytes is the table's logical SSD update-cache cap.
	CacheBytes int64       `json:"cache_bytes"`
	Rows       int64       `json:"rows"`
	Refs       []table.Ref `json:"refs"`
	// MigTS is the shadow-commit record: the newest migration timestamp
	// that may be stamped on pages reachable through Refs. A manifest
	// rewrite commits a table's flipped refs and this stamp in one
	// tmp+rename, so recovery resumes the oracle above every stamp the
	// committed page set can carry even when the WAL was lost with the
	// crash. Zero on manifests from before shadow paging.
	MigTS int64 `json:"mig_ts,omitempty"`
}

// manifest is the durable directory metadata: the file geometry, the
// catalog, and each table's page references — the only engine state that
// is neither rederivable from the redo log nor stored in the data files
// themselves.
type manifest struct {
	DataBytes    int64   `json:"data_bytes"` // total main.data capacity
	CacheBytes   int64   `json:"cache_bytes"`
	LogBytes     int64   `json:"log_bytes"`
	PageSize     int     `json:"page_size"`
	ScanIO       int     `json:"scan_io"`
	FillFraction float64 `json:"fill_fraction"`
	// DataNext is the bump cursor for the next table's heap region.
	DataNext    int64           `json:"data_next"`
	NextTableID uint32          `json:"next_table_id"`
	Tables      []tableManifest `json:"tables"`
}

// manifestV1 is the pre-catalog manifest body: one implicit table owning
// the whole data file.
type manifestV1 struct {
	DataBytes    int64       `json:"data_bytes"`
	CacheBytes   int64       `json:"cache_bytes"`
	LogBytes     int64       `json:"log_bytes"`
	PageSize     int         `json:"page_size"`
	ScanIO       int         `json:"scan_io"`
	FillFraction float64     `json:"fill_fraction"`
	Rows         int64       `json:"rows"`
	Refs         []table.Ref `json:"refs"`
}

func (m *manifest) tableConfig() table.Config {
	return table.Config{PageSize: m.PageSize, ScanIO: m.ScanIO, FillFraction: m.FillFraction}
}

// tableConfig reads the directory's page geometry under the manifest
// latch (the geometry itself never changes after open, but ds.m as a
// whole is mutated under manifestMu).
func (ds *dirState) tableConfig() table.Config {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	return ds.m.tableConfig()
}

// dirState is the durable side of a file-backed engine: the open files,
// the directory identity, and the manifest writer.
type dirState struct {
	dir  string
	opts EngineDirOptions

	// The directory's storage backends: filedev files, wrapped by
	// opts.WrapBackend when a test harness injects faults or counters.
	data  storage.Backend
	cache storage.Backend
	wal   storage.Backend
	// lock holds the advisory flock that gives this process exclusive
	// ownership of the directory; the kernel releases it when the
	// descriptor closes, so even a hard stop or process death frees it.
	lock *os.File

	// dataRoot is the whole main.data file as a volume; tables carve
	// their heap regions out of it with Slice.
	dataRoot *storage.Volume

	// manifestMu serializes manifest state and rewrites (a migration
	// checkpoint can race CreateTable on another table). It also guards
	// catalog — the dirState's own id-ordered table list. The WAL
	// migration-end checkpoint hook runs while the log's mutex is held
	// and must NOT take the engine's catalog lock (writers hold e.mu
	// while waiting on the log mutex, and a queued e.mu writer would
	// turn that into a three-way deadlock), so the manifest writer reads
	// this list instead of the engine's maps.
	manifestMu sync.Mutex
	m          manifest
	catalog    []*Table

	// Manifest-commit instrumentation (nil-safe obs handles; wall-clock
	// nanos — the manifest write is real file I/O outside the simulated
	// timeline). Set right after the engine's registry exists.
	manifestWrites *obs.Counter
	manifestNanos  *obs.Histogram
}

// allocData carves the next table's heap region out of main.data.
func (ds *dirState) allocData(need int64) (*storage.Volume, int64, error) {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	if need > ds.m.DataBytes-ds.m.DataNext {
		return nil, 0, fmt.Errorf("masm: %s: main.data full: %d bytes free, %d needed (recreate or reopen with a larger DataBytes)",
			ds.dir, ds.m.DataBytes-ds.m.DataNext, need)
	}
	off := ds.m.DataNext
	vol, err := ds.dataRoot.Slice(off, need)
	if err != nil {
		return nil, 0, err
	}
	ds.m.DataNext += need
	return vol, off, nil
}

// releaseData rolls back the most recent allocData when table creation
// fails after it, so a failed CreateTable does not permanently consume a
// region of the fixed-capacity data file. Only the topmost region can be
// returned (bump allocator); anything else is a no-op.
func (ds *dirState) releaseData(off, need int64) {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	if ds.m.DataNext == off+need {
		ds.m.DataNext = off
	}
}

// catalogEntry renders one table's durable manifest entry. Rows and Refs
// come from the heap table, which is internally consistent without any
// engine lock.
func catalogEntry(t *Table) tableManifest {
	return tableManifest{
		Name:       t.name,
		ID:         t.id,
		DataOff:    t.dataOff,
		DataBytes:  t.dataBytes,
		CacheBytes: t.cacheBudget,
		Rows:       t.tbl.Rows(),
		Refs:       t.tbl.Refs(),
		MigTS:      t.tbl.LastMigTS(),
	}
}

// addTable registers a new table in the durable catalog and rewrites the
// manifest. nextID is the engine's next-table-id watermark, persisted so
// table ids are never reused across a drop: a recycled id would route a
// dropped table's surviving WAL records into the new table.
func (ds *dirState) addTable(t *Table, nextID uint32) error {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	ds.catalog = append(ds.catalog, t)
	sort.Slice(ds.catalog, func(i, j int) bool { return ds.catalog[i].id < ds.catalog[j].id })
	if err := ds.writeManifestLocked(nextID); err != nil {
		// Roll the registration back so the durable catalog and the
		// in-memory one stay in step.
		for i, c := range ds.catalog {
			if c == t {
				ds.catalog = append(ds.catalog[:i], ds.catalog[i+1:]...)
				break
			}
		}
		return err
	}
	return nil
}

// removeTable drops a table from the durable catalog; the manifest
// rewrite is the drop's commit point (recovery ignores WAL records of
// tables absent from the manifest).
func (ds *dirState) removeTable(t *Table) error {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	for i, c := range ds.catalog {
		if c == t {
			ds.catalog = append(ds.catalog[:i], ds.catalog[i+1:]...)
			break
		}
	}
	return ds.writeManifestLocked(0)
}

// checkpointManifest rewrites the manifest from the current catalog — the
// WAL migration-end hook's entry point. It takes only manifestMu, never
// the engine lock (see the field comment on catalog).
func (ds *dirState) checkpointManifest() error {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	return ds.writeManifestLocked(0)
}

// writeManifestLocked atomically replaces MANIFEST with the current
// catalog: marshal, write to a temp file, fsync, rename, fsync the
// directory. A crash at any point leaves either the old or the new
// manifest, never a torn one. Caller holds manifestMu.
func (ds *dirState) writeManifestLocked(nextID uint32) error {
	start := time.Now()
	if err := ds.writeManifestInnerLocked(nextID); err != nil {
		return err
	}
	ds.manifestWrites.Inc()
	ds.manifestNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

func (ds *dirState) writeManifestInnerLocked(nextID uint32) error {
	tables := make([]tableManifest, 0, len(ds.catalog))
	for _, t := range ds.catalog {
		tables = append(tables, catalogEntry(t))
	}
	ds.m.Tables = tables
	if nextID > ds.m.NextTableID {
		ds.m.NextTableID = nextID
	}
	body, err := json.Marshal(&ds.m)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 16+len(body))
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, manifestCRCTable))
	buf = append(buf, body...)

	tmp := filepath.Join(ds.dir, manifestTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(ds.dir, manifestName)); err != nil {
		return err
	}
	return syncDir(ds.dir)
}

// parseManifest verifies and decodes a manifest image, upgrading version-1
// (single-table) bodies to the catalog form: one table named
// DefaultTableName with id 0 owning the whole data file.
func parseManifest(raw []byte) (*manifest, error) {
	if len(raw) < 16 || string(raw[:8]) != string(manifestMagic[:]) {
		return nil, errors.New("masm: not a MaSM database manifest")
	}
	v := binary.LittleEndian.Uint32(raw[8:])
	if v != manifestVersion && v != manifestVersionOne {
		return nil, fmt.Errorf("masm: manifest version %d unsupported (this build reads %d and %d)",
			v, manifestVersionOne, manifestVersion)
	}
	body := raw[16:]
	if crc32.Checksum(body, manifestCRCTable) != binary.LittleEndian.Uint32(raw[12:]) {
		return nil, errors.New("masm: manifest checksum mismatch")
	}
	var m manifest
	if v == manifestVersionOne {
		var m1 manifestV1
		if err := json.Unmarshal(body, &m1); err != nil {
			return nil, fmt.Errorf("masm: manifest: %w", err)
		}
		m = manifest{
			DataBytes:    m1.DataBytes,
			CacheBytes:   m1.CacheBytes,
			LogBytes:     m1.LogBytes,
			PageSize:     m1.PageSize,
			ScanIO:       m1.ScanIO,
			FillFraction: m1.FillFraction,
			DataNext:     m1.DataBytes,
			NextTableID:  1,
			Tables: []tableManifest{{
				Name:       DefaultTableName,
				ID:         0,
				DataOff:    0,
				DataBytes:  m1.DataBytes,
				CacheBytes: m1.CacheBytes,
				Rows:       m1.Rows,
				Refs:       m1.Refs,
			}},
		}
	} else if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("masm: manifest: %w", err)
	}
	if m.DataBytes <= 0 || m.CacheBytes <= 0 || m.LogBytes <= 0 || m.PageSize <= 0 {
		return nil, errors.New("masm: manifest geometry invalid")
	}
	if m.DataNext < 0 || m.DataNext > m.DataBytes {
		return nil, errors.New("masm: manifest data cursor out of range")
	}
	seenID := make(map[uint32]bool)
	seenName := make(map[string]bool)
	for i := range m.Tables {
		t := &m.Tables[i]
		if t.Name == "" || seenName[t.Name] {
			return nil, fmt.Errorf("masm: manifest: missing or duplicate table name %q", t.Name)
		}
		if seenID[t.ID] {
			return nil, fmt.Errorf("masm: manifest: duplicate table id %d", t.ID)
		}
		if t.ID >= m.NextTableID {
			return nil, fmt.Errorf("masm: manifest: table id %d not below next id %d", t.ID, m.NextTableID)
		}
		if t.DataOff < 0 || t.DataBytes <= 0 || t.DataOff > m.DataBytes || t.DataBytes > m.DataBytes-t.DataOff {
			return nil, fmt.Errorf("masm: manifest: table %q heap region [%d,%d) outside data file",
				t.Name, t.DataOff, t.DataOff+t.DataBytes)
		}
		if t.CacheBytes <= 0 || t.CacheBytes > m.CacheBytes {
			return nil, fmt.Errorf("masm: manifest: table %q cache cap %d outside (0,%d]", t.Name, t.CacheBytes, m.CacheBytes)
		}
		if t.MigTS < 0 {
			return nil, fmt.Errorf("masm: manifest: table %q migration stamp %d negative", t.Name, t.MigTS)
		}
		// With shadow paging, refs may point anywhere inside the heap
		// region — but never beyond it: a ref outside the region would read
		// another table's pages (table.Restore re-checks order/duplicates).
		maxPages := t.DataBytes / int64(m.PageSize)
		for _, r := range t.Refs {
			if r.PageNo < 0 || r.PageNo >= maxPages {
				return nil, fmt.Errorf("masm: manifest: table %q ref page %d outside heap region (%d pages)",
					t.Name, r.PageNo, maxPages)
			}
		}
		seenID[t.ID] = true
		seenName[t.Name] = true
	}
	return &m, nil
}

// readManifest loads and verifies MANIFEST.
func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// checkManifest re-reads MANIFEST from disk, re-validates it, and
// cross-checks it against the live catalog — the durable half of
// Engine.CheckInvariants. Rows and page refs are deliberately not
// compared: the manifest snapshots them only at create/drop/migration
// checkpoints, so they lag the live table between checkpoints by design.
func (ds *dirState) checkManifest(tables []*Table, nextID uint32) error {
	m, err := readManifest(ds.dir)
	if err != nil {
		return fmt.Errorf("masm: invariant probe: %w", err)
	}
	if len(m.Tables) != len(tables) {
		return fmt.Errorf("masm: manifest lists %d tables, catalog holds %d", len(m.Tables), len(tables))
	}
	byID := make(map[uint32]*tableManifest, len(m.Tables))
	var dataHigh int64
	for i := range m.Tables {
		tm := &m.Tables[i]
		byID[tm.ID] = tm
		if end := tm.DataOff + tm.DataBytes; end > dataHigh {
			dataHigh = end
		}
	}
	for _, t := range tables {
		tm, ok := byID[t.id]
		if !ok {
			return fmt.Errorf("masm: live table %q (id %d) missing from the manifest", t.name, t.id)
		}
		if tm.Name != t.name {
			return fmt.Errorf("masm: manifest names table id %d %q, catalog %q", t.id, tm.Name, t.name)
		}
		if tm.DataOff != t.dataOff || tm.DataBytes != t.dataBytes {
			return fmt.Errorf("masm: table %q heap region diverged: manifest [%d,+%d), catalog [%d,+%d)",
				t.name, tm.DataOff, tm.DataBytes, t.dataOff, t.dataBytes)
		}
		if tm.CacheBytes != t.cacheBudget {
			return fmt.Errorf("masm: table %q cache cap diverged: manifest %d, catalog %d", t.name, tm.CacheBytes, t.cacheBudget)
		}
	}
	if m.NextTableID < nextID {
		return fmt.Errorf("masm: manifest next-table-id %d behind the engine's %d (a dropped id could be recycled)",
			m.NextTableID, nextID)
	}
	if m.DataNext < dataHigh {
		return fmt.Errorf("masm: manifest data cursor %d below the highest table region end %d", m.DataNext, dataHigh)
	}
	return nil
}

// hooks wires the write-ahead ordering between the redo log and the data
// files (see wal.Hooks). The checkpoint covers the whole catalog: all
// tables share main.data and the manifest. It reads the dirState's own
// catalog copy, not the engine's maps — it runs with the log mutex held,
// and taking the engine lock there would deadlock against writers (see
// the catalog field comment).
func (ds *dirState) hooks() wal.Hooks {
	return wal.Hooks{
		SyncRuns: ds.cache.Sync,
		Checkpoint: func() error {
			if err := ds.data.Sync(); err != nil {
				return err
			}
			return ds.checkpointManifest()
		},
	}
}

// openBackend opens (creating if absent) one of the directory's files as a
// storage backend of the given capacity, applying the WrapBackend seam.
func (ds *dirState) openBackend(name string, size int64) (storage.Backend, error) {
	f, err := filedev.OpenWith(filepath.Join(ds.dir, name), size, filedev.Options{Direct: ds.opts.DirectIO})
	if err != nil {
		return nil, err
	}
	if ds.opts.WrapBackend != nil {
		return ds.opts.WrapBackend(name, f), nil
	}
	return f, nil
}

// closeFiles closes the directory's files, optionally syncing data and
// cache first (the WAL is synced by the caller through the log), and
// finally drops the directory lock. A crash test passes sync=false to
// model kill -9.
func (ds *dirState) closeFiles(sync bool) error {
	var firstErr error
	for _, f := range []storage.Backend{ds.data, ds.cache, ds.wal} {
		if f == nil {
			continue
		}
		if sync {
			if err := f.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if ds.lock != nil {
		if err := ds.lock.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		ds.lock = nil
	}
	return firstErr
}

// lockDir takes an exclusive advisory lock on the directory's LOCK file,
// so two processes (or two engines in one process) can never write the
// same database: the second open fails immediately instead of
// interleaving WAL batches with the first. flock releases with the
// descriptor, so a crashed owner never leaves a stale lock behind.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("masm: %s: database locked by another process: %w", dir, err)
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenEngineDir opens (creating if necessary) a durable, file-backed
// catalog engine in dir. A new directory is laid out empty — main.data +
// cache.runs + wal.log + MANIFEST — and tables are added with CreateTable;
// an existing one is recovered table by table: the manifest restores the
// catalog and each table's heap, the runs named by the shared redo log are
// rebuilt (checksum-verified) from cache.runs and routed to their owning
// tables, logged updates not covered by a flush repopulate each table's
// in-memory buffer, and interrupted migrations are redone idempotently.
// Everything committed — synced through Sync or a forced group-commit
// batch — is visible after reopen, even if the previous process was killed
// mid-write and left a torn redo-log tail. Version-1 (pre-catalog)
// directories are upgraded transparently: their single table appears as
// DefaultTableName.
func OpenEngineDir(dir string, opts EngineDirOptions) (*Engine, error) {
	if opts.Config == (Config{}) {
		opts.Config = DefaultConfig()
	}
	if opts.DisableRedoLog {
		return nil, errors.New("masm: OpenEngineDir: the file backend requires the redo log (it is the recovery mechanism)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	// A leftover temp log from a recovery that died mid-way is garbage:
	// the real wal.log is still authoritative.
	os.Remove(filepath.Join(dir, walTmpFileName))
	os.Remove(filepath.Join(dir, manifestTmpName))
	var e *Engine
	if _, statErr := os.Stat(filepath.Join(dir, manifestName)); statErr != nil {
		if !errors.Is(statErr, os.ErrNotExist) {
			lock.Close()
			return nil, statErr
		}
		e, err = createEngineDir(dir, opts, lock)
	} else {
		e, err = reopenEngineDir(dir, opts, lock)
	}
	if err != nil {
		lock.Close() // harmless if a dirState defer already closed it
		return nil, err
	}
	if opts.MetricsAddr != "" {
		srv, serr := obs.Serve(opts.MetricsAddr, e.reg)
		if serr != nil {
			e.Close()
			return nil, fmt.Errorf("masm: metrics endpoint: %w", serr)
		}
		e.msrv = srv
	}
	return e, nil
}

// MetricsAddr returns the listen address of the engine's metrics endpoint
// ("" when EngineDirOptions.MetricsAddr was not set). With ":0" the kernel
// picks the port; this reports the resolved address.
func (e *Engine) MetricsAddr() string {
	if e.msrv == nil {
		return ""
	}
	return e.msrv.Addr()
}

// deviceFor builds a simulated device big enough for the volumes laid out
// on it, keeping the paper's performance envelope.
func deviceFor(p sim.DeviceParams, need int64) *sim.Device {
	if p.Capacity < need {
		p.Capacity = need
	}
	return sim.NewDevice(p)
}

// createEngineDir lays out a fresh, empty catalog directory.
func createEngineDir(dir string, opts EngineDirOptions, lock *os.File) (e *Engine, err error) {
	if opts.CacheBytes <= 0 {
		return nil, fmt.Errorf("masm: non-positive cache size %d", opts.CacheBytes)
	}
	if opts.DataBytes <= 0 {
		opts.DataBytes = defaultEngineDataBytes
	}
	m := manifest{
		DataBytes:    opts.DataBytes,
		CacheBytes:   opts.CacheBytes,
		LogBytes:     logFileBytes,
		PageSize:     table.DefaultConfig().PageSize,
		ScanIO:       table.DefaultConfig().ScanIO,
		FillFraction: table.DefaultConfig().FillFraction,
	}
	ds := &dirState{dir: dir, opts: opts, m: m, lock: lock}
	defer func() {
		if err != nil {
			ds.closeFiles(false)
		}
	}()
	if ds.data, err = ds.openBackend(dataFileName, m.DataBytes); err != nil {
		return nil, err
	}
	if ds.cache, err = ds.openBackend(cacheFileName, m.CacheBytes*2); err != nil {
		return nil, err
	}
	if ds.wal, err = ds.openBackend(walFileName, m.LogBytes); err != nil {
		return nil, err
	}
	e = &Engine{
		cfg:    opts.Config,
		hdd:    deviceFor(sim.Barracuda7200(), m.DataBytes+m.LogBytes),
		ssd:    deviceFor(sim.IntelX25E(), m.CacheBytes*2),
		oracle: &core.Oracle{},
		tables: make(map[string]*Table),
		byID:   make(map[uint32]*Table),
		fs:     ds,
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(obs.DefaultTraceRing),
	}
	ds.manifestWrites = e.reg.Counter("masm_manifest_writes")
	ds.manifestNanos = e.reg.Histogram("masm_manifest_commit_nanos")
	e.iopool = storage.NewIOPool(opts.IOWorkers)
	e.iopool.SetMetrics(ioPoolMetricsFor(e.reg))
	if ds.dataRoot, err = storage.NewVolumeOn(e.hdd, 0, ds.data); err != nil {
		return nil, err
	}
	if e.logVol, err = storage.NewVolumeOn(e.hdd, m.DataBytes, ds.wal); err != nil {
		return nil, err
	}
	ssdVol, err := storage.NewVolumeOn(e.ssd, 0, ds.cache)
	if err != nil {
		return nil, err
	}
	e.ssdVol = ssdVol
	e.shared = core.NewSharedAlloc(ssdVol.Size())
	e.shared.SetMetrics(core.NewPoolMetrics(e.reg))
	if err = ds.checkpointManifest(); err != nil {
		return nil, err
	}
	e.log = wal.Open(e.logVol)
	e.log.SetHooks(ds.hooks())
	e.log.SetMetrics(walMetricsFor(e.reg))
	// Force the header down now, before any records: from here on, a
	// header that fails validation on reopen is corruption, never a torn
	// first write.
	if _, err = e.log.Bootstrap(0); err != nil {
		return nil, err
	}
	return e, nil
}

// reopenEngineDir recovers a catalog from an existing directory.
func reopenEngineDir(dir string, opts EngineDirOptions, lock *os.File) (e *Engine, err error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	// The directory's geometry is authoritative: the caller's CacheBytes
	// sized the cache at creation time and is superseded by what is on
	// disk now. The data file may be grown (it is sparse) to make room for
	// more tables.
	opts.CacheBytes = m.CacheBytes
	if opts.DataBytes > m.DataBytes {
		m.DataBytes = opts.DataBytes
	} else {
		opts.DataBytes = m.DataBytes
	}
	ds := &dirState{dir: dir, opts: opts, m: *m, lock: lock}
	var oldWal storage.Backend
	defer func() {
		if err != nil {
			ds.closeFiles(false)
			if oldWal != nil {
				oldWal.Close()
			}
		}
	}()
	if ds.data, err = ds.openBackend(dataFileName, m.DataBytes); err != nil {
		return nil, err
	}
	if ds.cache, err = ds.openBackend(cacheFileName, m.CacheBytes*2); err != nil {
		return nil, err
	}
	if oldWal, err = ds.openBackend(walFileName, m.LogBytes); err != nil {
		return nil, err
	}
	// Recovery rewrites the log as a checkpoint of the recovered state.
	// It goes to a temp file that atomically replaces wal.log only after
	// recovery fully succeeds: a crash mid-recovery leaves the old log
	// authoritative and recovery simply runs again.
	if ds.wal, err = ds.openBackend(walTmpFileName, m.LogBytes); err != nil {
		return nil, err
	}
	e = &Engine{
		cfg:    opts.Config,
		hdd:    deviceFor(sim.Barracuda7200(), m.DataBytes+2*m.LogBytes),
		ssd:    deviceFor(sim.IntelX25E(), m.CacheBytes*2),
		oracle: &core.Oracle{},
		tables: make(map[string]*Table),
		byID:   make(map[uint32]*Table),
		nextID: m.NextTableID,
		fs:     ds,
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(obs.DefaultTraceRing),
	}
	ds.manifestWrites = e.reg.Counter("masm_manifest_writes")
	ds.manifestNanos = e.reg.Histogram("masm_manifest_commit_nanos")
	e.iopool = storage.NewIOPool(opts.IOWorkers)
	e.iopool.SetMetrics(ioPoolMetricsFor(e.reg))
	if ds.dataRoot, err = storage.NewVolumeOn(e.hdd, 0, ds.data); err != nil {
		return nil, err
	}
	oldLogVol, err := storage.NewVolumeOn(e.hdd, m.DataBytes, oldWal)
	if err != nil {
		return nil, err
	}
	if e.logVol, err = storage.NewVolumeOn(e.hdd, m.DataBytes+m.LogBytes, ds.wal); err != nil {
		return nil, err
	}
	if e.ssdVol, err = storage.NewVolumeOn(e.ssd, 0, ds.cache); err != nil {
		return nil, err
	}
	e.shared = core.NewSharedAlloc(e.ssdVol.Size())
	e.shared.SetMetrics(core.NewPoolMetrics(e.reg))

	// Restore every table's heap from the manifest and register the
	// catalog before any store is rebuilt: the migration-checkpoint hook
	// rewrites the manifest from the full catalog, so a redo migration on
	// one table must already see the others.
	ordered := append([]tableManifest(nil), ds.m.Tables...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, tm := range ordered {
		vol, serr := ds.dataRoot.Slice(tm.DataOff, tm.DataBytes)
		if serr != nil {
			return nil, serr
		}
		tbl, terr := table.Restore(vol, m.tableConfig(), tm.Refs, tm.Rows)
		if terr != nil {
			return nil, fmt.Errorf("masm: restore table %q: %w", tm.Name, terr)
		}
		tbl.SetIOPool(e.iopool)
		// The shadow-commit stamp survives independently of the WAL: resume
		// the oracle above it so no post-recovery update can mint a
		// timestamp the committed page set already carries, and hand it
		// back to the table so later manifest rewrites never regress it.
		tbl.NoteMigTS(tm.MigTS)
		e.oracle.AdvanceTo(tm.MigTS)
		t := &Table{eng: e, name: tm.Name, id: tm.ID, cacheBudget: tm.CacheBytes,
			dataOff: tm.DataOff, dataBytes: tm.DataBytes, tbl: tbl}
		e.tables[t.name] = t
		e.byID[t.id] = t
		// The dirState's own catalog copy must be complete before any
		// store restore: a redone migration's checkpoint hook rewrites the
		// manifest from it, and a partial list would durably drop tables.
		ds.catalog = append(ds.catalog, t)
	}
	e.log = wal.Open(e.logVol)
	e.log.SetHooks(ds.hooks())
	e.log.SetMetrics(walMetricsFor(e.reg))

	// Records of tables absent from the manifest belong to dropped tables
	// (the manifest rewrite is the drop's commit point); recovery ignores
	// them.
	recoverStart := time.Now()
	now, err := e.recoverTables(oldLogVol, 0, ds.catalog, opts.RecoveryWorkers)
	if err != nil {
		return nil, fmt.Errorf("masm: recover %s: %w", dir, err)
	}
	// The checkpoint in the new log is durable (CheckpointAll syncs it)
	// and the header is down even when the checkpoint was empty; the old
	// log can now be atomically superseded. The open descriptor keeps
	// following the renamed file.
	if _, err = e.log.Bootstrap(now); err != nil {
		return nil, err
	}
	if err = oldWal.Close(); err != nil {
		return nil, err
	}
	oldWal = nil
	if err = os.Rename(filepath.Join(dir, walTmpFileName), filepath.Join(dir, walFileName)); err != nil {
		return nil, err
	}
	if err = syncDir(dir); err != nil {
		return nil, err
	}
	// Persist the upgraded (or grown) manifest so a version-1 directory
	// becomes a version-2 catalog on its first open under this build.
	if err = ds.checkpointManifest(); err != nil {
		return nil, err
	}
	e.clock.advance(now)
	e.reg.Gauge("masm_recovery_wall_nanos").Set(time.Since(recoverStart).Nanoseconds())
	e.tracer.Emit("recovery", "", "end", fmt.Sprintf("tables=%d", len(ds.catalog)), int64(now))
	return e, nil
}

// OpenDir opens (creating if necessary) a durable, file-backed database in
// dir: a one-table engine whose DefaultTableName table is returned as a
// DB. A new directory is bulk-loaded from opts.Keys/Bodies; an existing
// one — including one created before the multi-table catalog existed — is
// recovered completely (see OpenEngineDir).
//
// The returned DB behaves exactly like one from Open (same API, same
// virtual-time accounting); additionally Close syncs and releases the
// files, and Crash reopens from the directory instead of replaying in
// memory.
func OpenDir(dir string, opts DirOptions) (*DB, error) {
	if opts.Config == (Config{}) {
		opts.Config = DefaultConfig()
	}
	if opts.DisableRedoLog {
		return nil, errors.New("masm: OpenDir: the file backend requires the redo log (it is the recovery mechanism)")
	}
	fresh := false
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		fresh = true
	}
	eopts := EngineDirOptions{Config: opts.Config}
	if fresh {
		if opts.CacheBytes <= 0 {
			return nil, fmt.Errorf("masm: non-positive cache size %d", opts.CacheBytes)
		}
		if len(opts.Keys) != len(opts.Bodies) {
			return nil, fmt.Errorf("masm: %d keys but %d bodies", len(opts.Keys), len(opts.Bodies))
		}
		// Size main.data exactly as the pre-catalog layout did, so the
		// single table's geometry (and simulated timings) are unchanged.
		eopts.DataBytes = dataBytesFor(opts.Keys, opts.Bodies)
	}
	e, err := OpenEngineDir(dir, eopts)
	if err != nil {
		return nil, err
	}
	t, err := e.OpenTable(DefaultTableName)
	if errors.Is(err, ErrNoTable) {
		// Not only on a fresh directory: a crash (or failed bulk load)
		// between the catalog's creation and its first CreateTable leaves
		// a valid empty catalog, which must not brick the directory.
		t, err = e.CreateTable(DefaultTableName, TableOptions{Keys: opts.Keys, Bodies: opts.Bodies})
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return &DB{eng: e, t: t}, nil
}
