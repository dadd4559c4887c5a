package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one ccmd or ccmcached process listening on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logDone chan struct{}

	stopOnce sync.Once
	stopErr  error

	mu  sync.Mutex
	log strings.Builder
}

// startDaemon runs bin with args plus an ephemeral loopback address and
// waits until it logs its address and answers /healthz.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...), logDone: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					select {
					case addr <- fields[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("%s exited before listening:\n%s", bin, d.logText())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s never logged its address:\n%s", bin, d.logText())
	}
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("%s not healthy: %w", bin, err)
	}
	return d, nil
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM, waits for a clean drain (SIGKILL after 30 s), and
// reports an unclean exit. Later calls return the first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		timer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
		defer timer.Stop()
		<-d.logDone
		if err := d.cmd.Wait(); err != nil {
			d.stopErr = fmt.Errorf("%s: %w\n%s", d.cmd.Path, err, d.logText())
		}
	})
	return d.stopErr
}
