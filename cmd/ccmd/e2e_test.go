package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke is the end-to-end lifecycle check against the real
// binary: build ccmd, start it on an ephemeral port, compile a program
// over HTTP and confirm the bytes match a solo ccmc compile, scrape
// /metrics and /version, send SIGTERM, and assert a clean drain (exit
// 0, "drained cleanly" on stderr). scripts/verify.sh runs this.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon e2e in -short mode")
	}
	dir := t.TempDir()
	ccmdBin := filepath.Join(dir, "ccmd")
	ccmcBin := filepath.Join(dir, "ccmc")
	for bin, pkg := range map[string]string{ccmdBin: "./cmd/ccmd", ccmcBin: "./cmd/ccmc"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	srcPath := filepath.Join("..", "..", "testdata", "dotprod.iloc")
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}

	// Reference bytes: a solo ccmc compile of the same (program, config).
	ref := exec.Command(ccmcBin, "-strategy", "postpass", "-ccm", "512", srcPath)
	refOut, err := ref.Output()
	if err != nil {
		t.Fatalf("ccmc reference: %v", err)
	}

	daemon := exec.Command(ccmdBin,
		"-addr", "127.0.0.1:0",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-drain-timeout", "30s")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting ccmd: %v", err)
	}
	var logMu sync.Mutex
	var stderrBuf bytes.Buffer
	logText := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return stderrBuf.String()
	}
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			stderrBuf.WriteString(line + "\n")
			logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	defer daemon.Process.Kill()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("ccmd never logged its listen address:\n%s", logText())
	}

	// POST /compile: the daemon's bytes are ccmc's bytes.
	reqBody, _ := json.Marshal(map[string]any{
		"program": string(src),
		"config":  map[string]any{"strategy": "postpass", "ccm_bytes": 512},
	})
	resp, err := http.Post(base+"/compile", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("POST /compile: %v", err)
	}
	var compiled struct {
		Output string          `json:"output"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&compiled); err != nil {
		t.Fatalf("decoding compile response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /compile: status %d", resp.StatusCode)
	}
	if compiled.Output != string(refOut) {
		t.Fatalf("daemon output differs from solo ccmc compile (%d vs %d bytes)",
			len(compiled.Output), len(refOut))
	}
	if len(compiled.Report) == 0 {
		t.Fatalf("compile response has no report")
	}

	// GET /metrics: the request is visible in the admission counters and
	// the shared registry snapshot.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var metrics struct {
		Service struct {
			Requests int64 `json:"requests"`
		} `json:"service"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	mresp.Body.Close()
	if metrics.Service.Requests != 1 {
		t.Fatalf("service.requests = %d, want 1", metrics.Service.Requests)
	}
	if len(metrics.Metrics) == 0 {
		t.Fatalf("/metrics has no registry snapshot")
	}

	// GET /version matches the binary's -version output.
	vref := exec.Command(ccmdBin, "-version")
	vrefOut, err := vref.Output()
	if err != nil {
		t.Fatalf("ccmd -version: %v", err)
	}
	vresp, err := http.Get(base + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	var ver struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&ver); err != nil {
		t.Fatalf("decoding /version: %v", err)
	}
	vresp.Body.Close()
	if ver.Version != strings.TrimSpace(string(vrefOut)) {
		t.Fatalf("GET /version %q != ccmd -version %q", ver.Version, strings.TrimSpace(string(vrefOut)))
	}

	// Readiness is green before the signal...
	if code := getStatus(t, base+"/readyz"); code != 200 {
		t.Fatalf("/readyz = %d before shutdown", code)
	}

	// ...then SIGTERM drains and exits 0. Drain the stderr pipe to EOF
	// before Wait — Wait closes the pipe and would discard the final
	// shutdown log lines still in flight.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("ccmd did not exit within 30s of SIGTERM:\n%s", logText())
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("ccmd exited uncleanly after SIGTERM: %v\n%s", err, logText())
	}
	logs := logText()
	if !strings.Contains(logs, "drained cleanly") {
		t.Fatalf("shutdown log missing clean-drain line:\n%s", logs)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
