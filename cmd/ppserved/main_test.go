package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-queue", "-1"},
		{"-workers", "-1"},
		{"-cache", "-1"},
		{"-checkpoint-every", "-1"},
		{"-nonsense"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf, nil); code != 2 {
			t.Fatalf("run(%v) = %d, want 2 (stderr %s)", args, code, errBuf.String())
		}
	}
}

func TestBadListenAddr(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:http"}, &out, &errBuf, nil); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr %s)", code, errBuf.String())
	}
}

// startDaemon runs the daemon with args on its own goroutine and returns
// the listen address once it is accepting, plus the channel that receives
// its exit code.
func startDaemon(t *testing.T, args []string, out, errBuf *bytes.Buffer) (string, <-chan int) {
	t.Helper()
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() { exit <- run(args, out, errBuf, ready) }()
	select {
	case addr := <-ready:
		return addr, exit
	case code := <-exit:
		t.Fatalf("daemon exited %d before ready (stderr %s)", code, errBuf.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon not ready after 30s")
	}
	return "", nil
}

// TestEndToEnd boots the daemon on an ephemeral port, submits a job over
// real HTTP, reads its result, and shuts down via SIGTERM — the whole
// quickstart flow in one test.
func TestEndToEnd(t *testing.T) {
	if os.Getenv("CI_NO_SIGNALS") != "" {
		t.Skip("environment forbids self-signalling")
	}
	var out, errBuf bytes.Buffer
	addr, exit := startDaemon(t, []string{"-addr", "localhost:0", "-state-dir", t.TempDir(), "-workers", "1"},
		&out, &errBuf)
	base := "http://" + addr

	resp, err := http.Post(base+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"simulate","target":"majority","input":[30,20],"runs":3,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accept document %s (err %v)", body, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		var j struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("status document %s: %v", body, err)
		}
		if j.Status == "done" {
			if len(j.Result) == 0 {
				t.Fatalf("done without result: %s", body)
			}
			break
		}
		if j.Status == "failed" || j.Status == "cancelled" {
			t.Fatalf("job ended %s: %s", j.Status, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 60s", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGTERM lands on the whole process; the daemon's NotifyContext
	// catches it and drives the graceful-shutdown path.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d (stderr %s)", code, errBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown log in %q", out.String())
	}
}

// TestStalledRequestDoesNotBlockShutdown connects a client that sends a
// job submission's headers and the first byte of its body, then stalls.
// The handler is blocked reading the body, so the request stays in flight:
// an unbounded Shutdown would wait for it forever. The daemon must exit
// within shutdownTimeout and close the stalled connection. The test lowers
// shutdownTimeout so that waiting it out costs a fraction of a second.
func TestStalledRequestDoesNotBlockShutdown(t *testing.T) {
	if os.Getenv("CI_NO_SIGNALS") != "" {
		t.Skip("environment forbids self-signalling")
	}
	defer func(d time.Duration) { shutdownTimeout = d }(shutdownTimeout)
	shutdownTimeout = 300 * time.Millisecond
	var out, errBuf bytes.Buffer
	addr, exit := startDaemon(t, []string{"-addr", "localhost:0"}, &out, &errBuf)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /api/v1/jobs HTTP/1.1\r\nHost: ppserved\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the handler start reading the body

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d (stderr %s)", code, errBuf.String())
		}
	case <-time.After(shutdownTimeout + 10*time.Second):
		t.Fatal("daemon did not shut down while a request was stalled")
	}
	t.Logf("shut down %v after SIGTERM with a stalled request", time.Since(start).Round(time.Millisecond))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the stalled connection is still open after shutdown")
	}
}
