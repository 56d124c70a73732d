package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"chef/internal/chef"
)

// buildBinary compiles one of the repo's commands into dir.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startServe launches chef-serve on an ephemeral port and returns its base
// URL, the running command and a function yielding the rest of its stdout
// (safe to call only after the process exits).
func startServe(t *testing.T, bin string, extraArgs ...string) (string, *exec.Cmd, func() string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	// A manual pipe instead of StdoutPipe: cmd.Wait closes a StdoutPipe on
	// exit, racing the drain goroutine out of the final output lines.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start chef-serve: %v", err)
	}
	pw.Close() // child holds the write side now; EOF arrives when it exits
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		pr.Close()
	})
	// First line: "chef-serve: listening on 127.0.0.1:PORT".
	r := bufio.NewReader(pr)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read listen line: %v", err)
	}
	fields := strings.Fields(strings.TrimSpace(line))
	addr := fields[len(fields)-1]
	// Keep draining stdout so the process never blocks on the pipe; the
	// channel sequences the buffer read after the copy goroutine is done.
	var rest bytes.Buffer
	copied := make(chan struct{})
	go func() { _, _ = io.Copy(&rest, r); close(copied) }()
	stdout2 := func() string { <-copied; return rest.String() }
	return "http://" + addr, cmd, stdout2
}

// The end-to-end acceptance check over real processes: a job submitted to a
// spawned chef-serve with a fixed seed yields stats and test-case bytes
// identical to the chef CLI run with the same flags; the events endpoint
// streams trace JSONL; SIGTERM drains and exits 0.
func TestE2EServedMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds and spawns real binaries")
	}
	dir := t.TempDir()
	chefBin := buildBinary(t, dir, "chef/cmd/chef", "chef")
	serveBin := buildBinary(t, dir, "chef/cmd/chef-serve", "chef-serve")

	// CLI reference run.
	outFile := filepath.Join(dir, "cli.ndjson")
	cli := exec.Command(chefBin, "-package", "simplejson", "-strategy", "cupa-path",
		"-budget", "200000", "-steplimit", "30000", "-seed", "42", "-out", outFile)
	cliOut, err := cli.CombinedOutput()
	if err != nil {
		t.Fatalf("chef CLI: %v\n%s", err, cliOut)
	}
	cliTests, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var cliTestsN, cliLLPaths, cliRuns, cliUnsat, cliClock int64
	if _, err := fmt.Sscanf(string(cliOut), "package simplejson: %d high-level tests from %d low-level paths (%d runs, %d solver-unsat states, clock %d)",
		&cliTestsN, &cliLLPaths, &cliRuns, &cliUnsat, &cliClock); err != nil {
		t.Fatalf("parse CLI summary: %v\n%s", err, cliOut)
	}

	base, cmd, rest := startServe(t, serveBin, "-workers", "2")

	spec := JobSpec{Package: "simplejson", Strategy: "cupa-path", Budget: 200_000, StepLimit: 30_000, Seed: 42}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not terminate", st.ID)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != StateSucceeded {
		t.Fatalf("served job: %s (error %q)", st.State, st.Error)
	}

	// Stats byte-identity with the CLI's summary line.
	sum := st.Summary
	if sum == nil {
		t.Fatal("no summary on terminal job")
	}
	got := chef.Summary{HLTests: int(cliTestsN), LLPaths: cliLLPaths, Runs: cliRuns, UnsatStates: cliUnsat, VirtTime: cliClock}
	if sum.HLTests != got.HLTests || sum.LLPaths != got.LLPaths || sum.Runs != got.Runs ||
		sum.UnsatStates != got.UnsatStates || sum.VirtTime != got.VirtTime {
		t.Fatalf("served stats diverged from CLI:\nserved: %+v\nCLI:    %+v", *sum, got)
	}

	// Test-case byte-identity with the CLI's -out file.
	r, err := http.Get(base + "/v1/jobs/" + st.ID + "/tests")
	if err != nil {
		t.Fatal(err)
	}
	servedTests, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !bytes.Equal(servedTests, cliTests) {
		t.Fatalf("served test bytes diverged from CLI -out:\nserved:\n%s\nCLI:\n%s", servedTests, cliTests)
	}

	// The events endpoint streams the job's trace.
	r, err = http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !bytes.Contains(events, []byte(`"kind":"session-end"`)) {
		t.Fatalf("events stream lacks a session-end event:\n%s", events)
	}

	// SIGTERM: drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("chef-serve exit: %v", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("chef-serve exit code = %d, want 0", code)
	}
	if out := rest(); !strings.Contains(out, "chef-serve: stopped") {
		t.Fatalf("shutdown banner missing from stdout:\n%s", out)
	}
}

// SIGTERM mid-job: the in-flight job finishes (drain), new submissions are
// rejected, and the process still exits 0.
func TestE2ESigtermDrainsMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds and spawns real binaries")
	}
	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "chef/cmd/chef-serve", "chef-serve")
	base, cmd, _ := startServe(t, serveBin, "-workers", "1", "-drain-timeout", "60s")

	spec := JobSpec{Package: "simplejson", Strategy: "cupa-path", Budget: 400_000, StepLimit: 30_000, Seed: 5}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// While draining, new submissions bounce (until the listener closes,
	// after which connection errors are equally acceptable). Wait for
	// /healthz to report the drain rather than for a fixed time: a loaded
	// host may take longer than any sleep to deliver the signal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/healthz")
		if err != nil {
			break
		}
		r.Body.Close()
		if r.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz still %d 30s after SIGTERM", r.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body)); err == nil {
		if r.StatusCode == http.StatusAccepted {
			t.Fatal("submission accepted during drain")
		}
		r.Body.Close()
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("chef-serve exit after SIGTERM mid-job: %v", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
}
