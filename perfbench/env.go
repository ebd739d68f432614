package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envBlock describes the machine and inputs a result was measured on, so
// results from different machines and commits can be compared.
type envBlock struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	FSType        string  `json:"data_dir_fs"`
	Fsync4KUs     float64 `json:"raw_4k_write_fsync_us_p50"`
	LoopbackRTTUs float64 `json:"loopback_rtt_us_p50"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	RunSeconds    int     `json:"run_seconds"`
	Tables        int     `json:"tables"`
	RowsPerTable  int     `json:"rows_per_table"`
	BodyBytes     int     `json:"body_bytes"`
	MainDataMB    float64 `json:"main_data_mb"`
	CacheBytes    int64   `json:"cache_bytes"`
	Conns         int     `json:"conns"`
}

func probeEnv(dir string) (envBlock, error) {
	e := envBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FSType:     fsType(dir),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var err error
	if e.Fsync4KUs, err = rawFsyncUs(dir); err != nil {
		return e, fmt.Errorf("calibrate fsync: %w", err)
	}
	if e.LoopbackRTTUs, err = loopbackRTTUs(); err != nil {
		return e, fmt.Errorf("calibrate loopback: %w", err)
	}
	return e, nil
}

// rawFsyncUs is the median cost of one 4 KB pwrite followed by fsync on
// the data directory's filesystem, in wall-clock microseconds.
func rawFsyncUs(dir string) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	var xs []float64
	for i := 0; i < 64; i++ {
		start := time.Now()
		if _, err := f.WriteAt(buf, int64(i%8)*4096); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start))/float64(time.Microsecond))
	}
	return quantile(xs, 0.5), nil
}

// loopbackRTTUs is the median round trip of one byte over TCP loopback, in
// wall-clock microseconds.
func loopbackRTTUs() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		b := make([]byte, 1)
		for {
			if _, err := c.Read(b); err != nil {
				echoed <- nil
				return
			}
			if _, err := c.Write(b); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	b := make([]byte, 1)
	var xs []float64
	for i := 0; i < 2000 && err == nil; i++ {
		start := time.Now()
		if _, err = c.Write(b); err == nil {
			_, err = c.Read(b)
		}
		xs = append(xs, float64(time.Since(start))/float64(time.Microsecond))
	}
	c.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	return quantile(xs, 0.5), err
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
		0x01021997: "9p", 0x6a656a63: "virtiofs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
