//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/mispserve into the benchmark's output
// directory. go build is a no-op when the binary is already current, so
// back-to-back runs in one checkout pay for the compile once. The build
// is toolchain time, not the program's, and stays outside setup_s.
func buildDaemon(ctx context.Context, root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "bin", "mispserve")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mispserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/mispserve: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// daemon is one mispserve child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	ready   time.Duration // spawn → /healthz/ready answering 200
	flags   []string
	stderr  bytes.Buffer
	drained sync.WaitGroup // stdout reader
	once    sync.Once
	stopErr error
}

// daemonFlags is the measured daemon's configuration: one worker, so
// the two closed-loop clients queue behind each other; disk cache,
// journal and mid-run checkpoints on, so every durable layer is on the
// blocking path of a miss.
func daemonFlags(dir string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "64",
		"-cachedir", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal"),
		"-checkpoint-cycles", "1000000",
	}
}

// startDaemon spawns bin, reads its "listening on" line for the port it
// picked, and polls /healthz/ready. On any error the child is reaped
// before returning.
func startDaemon(ctx context.Context, bin string, flags []string) (*daemon, error) {
	d := &daemon{flags: flags}
	d.cmd = exec.Command(bin, flags...)
	d.cmd.Stderr = &d.stderr
	// A harness that dies without running its deferred stop (SIGKILL)
	// must not leave a daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	d.drained.Add(1)
	go func() {
		defer d.drained.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "mispserve: listening on 127.0.0.1:41234 (misp devel …)"
			if rest, ok := strings.CutPrefix(sc.Text(), "mispserve: listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addrCh <- f[0]:
					default:
					}
				}
			}
		}
		close(addrCh)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("%w\nmispserve stderr:\n%s", err, d.stderr.String())
	}
	select {
	case addr, ok := <-addrCh:
		if !ok {
			return fail(errors.New("mispserve exited before announcing its address"))
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fail(errors.New("mispserve did not announce its address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("mispserve not ready within 30s (last error: %v)", err))
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.ready = time.Since(t0)
	return d, nil
}

// stop SIGTERM-drains the daemon and reaps it. The daemon's own drain
// budget is 30s; only a child still alive well past that is killed, and
// that is reported as an error. Safe to call more than once.
func (d *daemon) stop() error {
	d.once.Do(func() {
		if d.cmd.Process == nil {
			return
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() {
			d.drained.Wait() // Wait closes the pipe; finish reading first
			done <- d.cmd.Wait()
		}()
		select {
		case err := <-done:
			if err != nil {
				d.stopErr = fmt.Errorf("mispserve exit: %w\n%s", err, d.stderr.String())
			}
		case <-time.After(45 * time.Second):
			d.cmd.Process.Kill()
			<-done
			d.stopErr = errors.New("mispserve ignored SIGTERM for 45s and was killed")
		}
	})
	return d.stopErr
}

// cpu returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, i.e. 11 and 12 after the ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// peakRSSMB reads VmHWM (peak resident set) of pid, in MiB.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// counters fetches /metrics and returns its "counter <name> <value>"
// lines.
func (d *daemon) counters(ctx context.Context) (map[string]uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "counter" {
			if v, err := strconv.ParseUint(f[2], 10, 64); err == nil {
				out[f[1]] = v
			}
		}
	}
	return out, nil
}
