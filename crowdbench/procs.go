package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one platform process the benchmark starts: eyeorg-server or
// eyeorg-router, bound to a loopback port picked before exec.
type proc struct {
	name  string
	bin   string
	args  []string
	log   string
	base  string // http://127.0.0.1:port
	debug string // debug listener base, "" when off
	cmd   *exec.Cmd
}

// freePorts asks the kernel for n distinct unused loopback ports. The
// listeners stay open until all n are chosen: closing each at once would
// let the kernel hand the same port out twice, and two processes of one
// deployment would then race for it.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func (p *proc) start() error {
	lf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer lf.Close()
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc()))
	// A child must not outlive the generator, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd = cmd
	return nil
}

// kill sends SIGKILL and waits for the process to be gone.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
	p.cmd = nil
}

func (p *proc) pid() int {
	if p.cmd == nil {
		return 0
	}
	return p.cmd.Process.Pid
}

// waitReady polls url until it answers 200 or the deadline passes.
func waitReady(hc *http.Client, url string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error %v)", url, within, err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// cpuMs returns the CPU time the process's threads have run so far,
// summed from each thread's schedstat (nanosecond resolution; the
// utime/stime of /proc/<pid>/stat count 10 ms ticks).
func cpuMs(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited while we listed
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat of %d/%s: %w", pid, t.Name(), err)
		}
		ns += v
	}
	return float64(ns) / 1e6, nil
}

// stealCounter reads the host-wide jiffies counters of /proc/stat.
func stealCounter() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// writtenBytes is the process's wchar from /proc/<pid>/io: bytes it
// has passed to write(2) and friends, to files and sockets alike.
func writtenBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/%d/io", pid)
}

// statusKB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status.
func statusKB(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line[len(field)+1:])
			if len(fs) > 0 {
				return strconv.ParseInt(fs[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// nproc is the number of CPUs this process may run on, as nproc(1)
// reports it.
func nproc() int { return runtime.NumCPU() }

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
