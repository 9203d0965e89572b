// Package e2e drives the built coldtall, tracegen and llcsim binaries the
// way a user does: the CLI client against a live `coldtall serve` over
// real HTTP, and the trace tools over real files. Its spine is that the
// CLI and the served API emit byte-identical artifacts. TestE2E builds
// the binaries once; each of its scenarios that needs a server boots its
// own on a kernel-chosen port and ends with a SIGTERM that must exit 0.
//
//	make e2e                                  # go test -count=1 ./e2e/
//	go test -count=1 -run 'TestE2E/tenants' ./e2e/
//
// The package skips under -short.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// binDir holds the binaries TestE2E builds: coldtall, tracegen, llcsim.
var binDir string

func TestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and boots servers; run without -short")
	}
	binDir = t.TempDir()
	recordSources(t)
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"coldtall/cmd/coldtall", "coldtall/cmd/tracegen", "coldtall/cmd/llcsim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"smoke", smoke},
		{"artifacts", artifacts},
		{"techaxes", techaxes},
		{"trace", traceTools},
		{"workloads", workloads},
		{"tenants", tenants},
	} {
		t.Run(sc.name, sc.run)
	}
}

// recordSources stats go.mod and every non-test .go file of the module,
// and lists every package directory, outside e2e/, testdata and nested
// modules. The go command keys a cached test result on the files the test
// process touches, not on what the child `go build` reads, so without
// this an edit to the binaries' sources would leave `go test ./...`
// reporting a cached pass.
func recordSources(t *testing.T) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || name == "testdata" || name == "e2e" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if name == "go.mod" || name == "go.sum" ||
			strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("recording the module's sources: %v", err)
	}
}

// run executes a built binary, fails the test unless it exits 0, and
// returns its stdout and stderr.
func run(t *testing.T, name string, args ...string) ([]byte, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes(), stderr.String()
}

// writeFile writes content under dir and returns the path.
func writeFile(t *testing.T, dir, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// decode unmarshals a JSON body or fails the test.
func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

// jobID is the first field of `jobs submit` output, a "j"-prefixed ID.
func jobID(t *testing.T, submitOut []byte) string {
	t.Helper()
	f := strings.Fields(string(submitOut))
	if len(f) == 0 || !strings.HasPrefix(f[0], "j") {
		t.Fatalf("jobs submit printed no job ID: %q", submitOut)
	}
	return f[0]
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

var client = &http.Client{Timeout: 2 * time.Minute}

// serve is one running `coldtall serve` process.
type serve struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string       // http://<bound address>
	log  bytes.Buffer // stderr, read only after the process exits
}

// boot starts `coldtall serve -addr 127.0.0.1:0 <args>`, takes the bound
// address from its banner and waits for /healthz. A scenario that fails
// before stop leaves the process to be killed at cleanup.
func boot(t *testing.T, args ...string) *serve {
	t.Helper()
	s := &serve{t: t}
	s.cmd = exec.Command(filepath.Join(binDir, "coldtall"), append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = &s.log
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("serve log:\n%s", s.log.Bytes())
		}
	})
	lines := bufio.NewScanner(stdout)
	for s.base == "" && lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "serving the DSE API on "); ok {
			addr := strings.TrimSuffix(strings.Fields(rest)[0], ",")
			if strings.HasSuffix(addr, ":0") {
				t.Fatalf("banner names the requested port, not the bound one: %q", lines.Text())
			}
			s.base = "http://" + addr
		}
	}
	if s.base == "" {
		t.Fatal("serve printed no banner")
	}
	go io.Copy(io.Discard, stdout)
	if body := s.get("/healthz"); !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("/healthz answered %q", body)
	}
	return s
}

// stop sends SIGTERM and requires a clean drain: exit status 0.
func (s *serve) stop() {
	s.t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		s.t.Fatalf("server did not drain cleanly: %v", err)
	}
}

// do sends one request, with a bearer key when key is set, and returns
// the response with its body read.
func (s *serve) do(method, path, key string, body []byte) (*http.Response, []byte) {
	s.t.Helper()
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		s.t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := client.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		s.t.Fatal(err)
	}
	return resp, body
}

// code returns only the status of one request.
func (s *serve) code(method, path, key, body string) int {
	s.t.Helper()
	resp, _ := s.do(method, path, key, []byte(body))
	return resp.StatusCode
}

// fetch sends a request that must succeed (below 400) and returns the body.
func (s *serve) fetch(method, path string, body []byte) []byte {
	s.t.Helper()
	resp, got := s.do(method, path, "", body)
	if resp.StatusCode >= 400 {
		s.t.Fatalf("%s %s: %s\n%s", method, path, resp.Status, got)
	}
	return got
}

func (s *serve) get(path string) []byte {
	s.t.Helper()
	return s.fetch("GET", path, nil)
}

// cli runs a coldtall client command (jobs, workloads) against this
// server and returns its stdout.
func (s *serve) cli(command string, args ...string) []byte {
	s.t.Helper()
	out, _ := run(s.t, "coldtall", append([]string{command, "-server", s.base}, args...)...)
	return out
}
