package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"timingsubg/client"
	"timingsubg/internal/tenant"
)

const (
	tenantName = "bench"
	tenantKey  = "k-bench"
	adminKey   = "k-admin"
)

// cleanups holds what must not outlive the harness: spawned servers and
// temporary WAL directories. Every exit path — return, error, SIGINT —
// runs them; a server additionally carries Pdeathsig so even a harness
// that is killed outright (a test timeout) takes its child with it.
var cleanups struct {
	sync.Mutex
	fns map[int]func()
	seq int
}

func onExit(fn func()) (cancel func()) {
	cleanups.Lock()
	defer cleanups.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	cleanups.seq++
	id := cleanups.seq
	cleanups.fns[id] = fn
	return func() {
		cleanups.Lock()
		delete(cleanups.fns, id)
		cleanups.Unlock()
	}
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// dirs locates the benchmark's own directory, the repository above it
// and the (git-ignored) build and output directories inside it.
type dirs struct {
	bench, repo, build, out string
}

func locate() (dirs, error) {
	// `go run ./benchmark` runs in the repository root, `go test` in the
	// package directory.
	wd, err := os.Getwd()
	if err != nil {
		return dirs{}, err
	}
	for _, cand := range []string{wd, filepath.Join(wd, "benchmark")} {
		if _, err := os.Stat(filepath.Join(cand, "workloads.go")); err == nil {
			d := dirs{bench: cand, repo: filepath.Dir(cand)}
			d.build = filepath.Join(cand, ".build")
			d.out = filepath.Join(cand, "out")
			if err := os.MkdirAll(d.build, 0o755); err != nil {
				return dirs{}, err
			}
			if err := os.MkdirAll(d.out, 0o755); err != nil {
				return dirs{}, err
			}
			return d, nil
		}
	}
	return dirs{}, fmt.Errorf("run from the repository root or from benchmark/ (no workloads.go near %s)", wd)
}

// buildServer compiles cmd/tsserved from the checkout's source. It is
// not part of any measured time; an up-to-date binary is a no-op.
func buildServer(d dirs) (string, error) {
	bin := filepath.Join(d.build, "tsserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tsserved")
	cmd.Dir = d.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tsserved: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one spawned tsserved process.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	pid    int
	log    *os.File
	forget func()
	waited chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts tsserved on a free loopback port with the flags every
// workload shares (tenancy on, pprof on, a subscriber buffer no run
// overflows) plus the workload's own, and returns once it listens. Its
// stdout and stderr go to logPath.
func spawn(bin, tenantsFile, logPath string, extra []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-listen", "127.0.0.1:" + strconv.Itoa(port),
		"-tenants-file", tenantsFile,
		"-admin-key", adminKey,
		"-pprof",
		"-subscriber-buffer", "65536",
	}, extra...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("spawn tsserved: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{cmd: cmd, addr: addr, base: "http://" + addr, pid: cmd.Process.Pid,
		log: logf, waited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.waited)
	}()
	s.forget = onExit(s.kill)
	return s, nil
}

// kill stops the process with SIGKILL and waits until it has ended.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.waited
	s.log.Close()
	if s.forget != nil {
		s.forget()
	}
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.waited:
			return fmt.Errorf("tsserved exited during start-up (see %s)", s.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tsserved not ready after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) request(ctx context.Context, method, path, key string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	return req, nil
}

func (s *server) register(q namedQuery, window int64) error {
	body, _ := json.Marshal(client.QueryRequest{Name: q.name, Text: q.text, Window: window})
	req, err := s.request(context.Background(), http.MethodPost, "/queries", tenantKey, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("register %s: %d %s", q.name, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// serverStats is the part of GET /stats (admin view) the harness reads.
type serverStats struct {
	Fleet   client.EngineStats            `json:"fleet.stats"`
	Tenants map[string]client.TenantUsage `json:"server.tenants"`
	Dropped int64                         `json:"server.dropped_events"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	req, err := s.request(context.Background(), http.MethodGet, "/stats", adminKey, nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// memStats is the runtime.MemStats subset printed at the end of
// /debug/pprof/heap?debug=1.
type memStats struct {
	Mallocs, TotalAlloc, NumGC, HeapAlloc uint64
	PauseNs                               []uint64 // the runtime's ring of recent pauses
}

// memStats fetches the server's memory statistics; with gc set the
// server runs a garbage collection first, so HeapAlloc is its live heap.
func (s *server) memStats(gc bool) (memStats, error) {
	var ms memStats
	url := s.base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		return ms, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return ms, err
	}
	i := bytes.Index(raw, []byte("# runtime.MemStats"))
	if i < 0 {
		return ms, fmt.Errorf("no runtime.MemStats in heap profile")
	}
	for _, line := range strings.Split(string(raw[i:]), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "Mallocs":
			ms.Mallocs, _ = strconv.ParseUint(v, 10, 64)
		case "TotalAlloc":
			ms.TotalAlloc, _ = strconv.ParseUint(v, 10, 64)
		case "HeapAlloc":
			ms.HeapAlloc, _ = strconv.ParseUint(v, 10, 64)
		case "NumGC":
			ms.NumGC, _ = strconv.ParseUint(v, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, _ := strconv.ParseUint(f, 10, 64)
				ms.PauseNs = append(ms.PauseNs, n)
			}
		}
	}
	if ms.Mallocs == 0 {
		return ms, fmt.Errorf("heap profile carries no Mallocs line")
	}
	return ms, nil
}

// gcPauseNs estimates the GC pause time between two samples from the
// runtime's 256-entry pause ring: exact while at most 256 cycles ran in
// between, scaled up from the retained ones beyond that.
func gcPauseNs(before, after memStats) float64 {
	cycles := after.NumGC - before.NumGC
	if cycles == 0 || len(after.PauseNs) == 0 {
		return 0
	}
	ring := uint64(len(after.PauseNs))
	kept := min(cycles, ring)
	var sum uint64
	for i := uint64(0); i < kept; i++ {
		sum += after.PauseNs[(after.NumGC-1-i)%ring]
	}
	return float64(sum) * float64(cycles) / float64(kept)
}

// procSample is what the kernel says about the server process.
type procSample struct {
	cpu                 time.Duration // user+system, from the process's CPU-time clock
	userTicks, sysTicks uint64        // the same, split, in /proc's 10 ms ticks
	hwmKB               uint64
	ctxSwitches         uint64
	writeBytes          uint64
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime reads another process's CPU-time clock: clock_gettime(2) on
// the clock id clock_getcpuclockid(3) derives from a pid. It counts
// nanoseconds where /proc/<pid>/stat counts 10 ms ticks, which over one
// closed-loop slice would be a few per cent of the reading.
func cpuTime(pid int) (time.Duration, error) {
	clock := uintptr(^pid<<3 | 2) // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime on the CPU clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

func readProc(pid int) (procSample, error) {
	var p procSample
	var err error
	if p.cpu, err = cpuTime(pid); err != nil {
		return p, err
	}
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc stat line")
	}
	p.userTicks, _ = strconv.ParseUint(f[11], 10, 64)
	p.sysTicks, _ = strconv.ParseUint(f[12], 10, 64)
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, _ := strings.Cut(line, ":")
		n, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		switch k {
		case "VmHWM":
			p.hwmKB = n
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			p.ctxSwitches += n
		}
	}
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		for _, line := range strings.Split(string(io), "\n") {
			if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
				p.writeBytes, _ = strconv.ParseUint(v, 10, 64)
			}
		}
	}
	return p, nil
}

// selfCPU is the load generator's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem under path: an fsync on tmpfs or overlay
// is the sandbox's, not a device's.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/ext3/ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func dirSize(path string) int64 {
	var n int64
	filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// benchTenant is the one tenant every run serves: real but non-binding
// limits, so every admission check runs at full depth and none rejects.
func benchTenant() tenant.Spec {
	return tenant.Spec{
		Name:   tenantName,
		Keys:   []tenant.KeySpec{{Key: tenantKey}},
		Limits: tenant.Limits{EdgesPerSec: 1e9, BatchesPerSec: 1e9, MaxQueries: 100, MaxSubscriptions: 100},
	}
}

func writeTenantsFile(path string) error {
	data, err := json.Marshal(tenant.File{Tenants: []tenant.Spec{benchTenant()}})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}
