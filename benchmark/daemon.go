package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one pased process the harness started. It runs in its own
// process group, which stop kills as a whole.
type daemon struct {
	cmd    *exec.Cmd
	name   string
	base   string // public listener, as peers and clients reach it
	debug  string // -debug-addr listener
	log    *os.File
	exited chan struct{}
}

// Fixed loopback ports: rendezvous ownership hashes the member strings, so
// the ports decide which daemon owns which request.
const (
	portA, debugPortA = 18555, 18565
	portB, debugPortB = 18556, 18566
)

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// killOnSignal stops every live daemon when the harness is interrupted.
func killOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-c
		stopAll()
		os.Exit(1)
	}()
}

func stopAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func loopback(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// portFree refuses a port something else already listens on.
func portFree(port int) error {
	l, err := net.Listen("tcp", loopback(port))
	if err != nil {
		return fmt.Errorf("port %d is taken: %w", port, err)
	}
	return l.Close()
}

// startDaemon boots one fleet member and returns once it is started; ready
// waits for it to serve.
func startDaemon(name string, port, debugPort, peerPort int) (*daemon, error) {
	for _, p := range []int{port, debugPort} {
		if err := portFree(p); err != nil {
			return nil, err
		}
	}
	logFile, err := os.OpenFile(filepath.Join(outDir, "pased-"+name+".log"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		name:   name,
		base:   "http://" + loopback(port),
		debug:  "http://" + loopback(debugPort),
		log:    logFile,
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(pasedBin,
		"-addr", loopback(port),
		"-debug-addr", loopback(debugPort),
		"-advertise", d.base,
		"-peers", "http://"+loopback(peerPort),
		// Boot waits for one probe of the peer; the default second between
		// probes would put up to a second of chance into setup_s.
		"-fleet-probe-interval", "250ms",
	)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	// Its own process group, killed whole by stop; and killed by the kernel
	// should the harness die without running stop.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", pasedBin, err)
	}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// ready polls /v1/readyz until the daemon serves and its prober has found
// its peer healthy, or the deadline passes. A daemon that boots before its
// peer marks it unhealthy until the next probe, and would meanwhile answer
// the peer's requests itself.
func (d *daemon) ready(deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if !d.alive() {
			return fmt.Errorf("pased %s exited during boot; see %s", d.name, d.log.Name())
		}
		if resp, err := http.Get(d.base + "/v1/readyz"); err == nil {
			var body struct {
				Ready bool `json:"ready"`
				Peers []struct {
					Healthy bool   `json:"healthy"`
					Breaker string `json:"breaker"`
				} `json:"peers"`
			}
			err := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			ok := err == nil && resp.StatusCode == http.StatusOK && body.Ready && len(body.Peers) == 1
			for _, p := range body.Peers {
				ok = ok && p.Healthy && p.Breaker == "closed"
			}
			if ok {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("pased %s and its peer not ready after %s; see %s", d.name, deadline, d.log.Name())
}

// stop ends the daemon's process group and waits for the daemon to be gone.
func (d *daemon) stop() {
	liveMu.Lock()
	known := live[d]
	delete(live, d)
	liveMu.Unlock()
	if !known {
		return
	}
	pgid := -d.cmd.Process.Pid
	syscall.Kill(pgid, syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		syscall.Kill(pgid, syscall.SIGKILL)
		<-d.exited
	}
	d.log.Close()
}

func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Planner struct {
		ResultHits   int64 `json:"result_hits"`
		ResultMisses int64 `json:"result_misses"`
	} `json:"planner"`
	Fleet struct {
		Forwards  int64 `json:"forwards"`
		Fallbacks int64 `json:"fallbacks"`
		Retries   int64 `json:"retries"`
	} `json:"fleet"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats on %s: %s", d.name, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// heapRetainedMB is the daemon's HeapAlloc after two forced collections,
// read from the pprof listener (gc=1 collects before sampling).
func (d *daemon) heapRetainedMB() (float64, error) {
	var mb float64
	for i := 0; i < 2; i++ {
		resp, err := http.Get(d.debug + "/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		found := false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					resp.Body.Close()
					return 0, fmt.Errorf("heap profile of %s: HeapAlloc %q: %w", d.name, v, err)
				}
				mb, found = n/(1<<20), true
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return 0, err
		}
		if !found {
			return 0, errors.New("heap profile of " + d.name + " has no HeapAlloc line")
		}
	}
	return mb, nil
}
