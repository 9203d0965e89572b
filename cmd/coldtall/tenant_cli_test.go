package main

// CLI tests for the multi-tenant surface: the openapi subcommand, the
// -api-key bearer passthrough, jobs watch (SSE) and the jobs list
// filter/pagination flags — all against a real server on an httptest
// listener.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coldtall/internal/server"
)

// TestOpenAPISubcommand pins the drift-free contract end to end: the
// offline `coldtall openapi` bytes equal the running server's
// /v1/openapi.json answer.
func TestOpenAPISubcommand(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"openapi"}, &b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), string(server.OpenAPIJSON()); got != want {
		t.Error("openapi subcommand output differs from server.OpenAPIJSON()")
	}
	if !strings.Contains(b.String(), `"openapi": "3.0.3"`) {
		t.Errorf("output is not an OpenAPI document: %.80s", b.String())
	}

	url := startJobServer(t)
	resp, err := http.Get(url + "/v1/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != b.String() {
		t.Error("served /v1/openapi.json differs from the CLI's openapi output")
	}
}

// TestJobsAPIKeyAuth drives -api-key through the client: a wrong key is
// the server's 401, the configured key lists cleanly.
func TestJobsAPIKeyAuth(t *testing.T) {
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"tenants":[{"name":"alice","key":"alice-key-1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	url := startJobServerCfg(t, server.Config{TenantsFile: tenants})

	var b strings.Builder
	err := run(bg, []string{"jobs", "-server", url, "-api-key", "wrong-key", "list"}, &b)
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Errorf("wrong key: err = %v, want the server's 401", err)
	}
	b.Reset()
	if err := run(bg, []string{"jobs", "-server", url, "-api-key", "alice-key-1", "list"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no jobs") {
		t.Errorf("keyed list output = %q", b.String())
	}
}

// TestJobsWatchMatchesWait is the CLI half of the streaming byte-identity
// contract: watch's stdout equals wait's stdout for the same job.
func TestJobsWatchMatchesWait(t *testing.T) {
	url := startJobServer(t)

	var sub strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "submit", "table1"}, &sub); err != nil {
		t.Fatal(err)
	}
	id := jobID(t, sub.String())

	var watched strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "watch", id}, &watched); err != nil {
		t.Fatal(err)
	}
	var waited strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "wait", id}, &waited); err != nil {
		t.Fatal(err)
	}
	if watched.String() != waited.String() {
		t.Errorf("watch stdout differs from wait stdout:\nwatch: %.120q\nwait:  %.120q", watched.String(), waited.String())
	}
	if !strings.HasPrefix(watched.String(), "parameter,value\n") {
		t.Errorf("watch output is not the table1 CSV: %.60q", watched.String())
	}

	// watch without an ID follows the id-taking contract.
	var b strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "watch"}, &b); err == nil || !strings.Contains(err.Error(), "job ID is required") {
		t.Errorf("watch without an ID: err = %v", err)
	}
}

// TestJobsListFlags drives -state, -limit and -cursor through the CLI.
func TestJobsListFlags(t *testing.T) {
	url := startJobServer(t)
	var ids []string
	for _, artifact := range []string{"table1", "fig1"} {
		var sub strings.Builder
		if err := run(bg, []string{"jobs", "-server", url, "submit", artifact}, &sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jobID(t, sub.String()))
	}
	for _, id := range ids {
		var res strings.Builder
		if err := run(bg, []string{"jobs", "-server", url, "wait", id}, &res); err != nil {
			t.Fatal(err)
		}
	}

	var page1 strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "-state", "done", "-limit", "1", "list"}, &page1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(page1.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "next page: -cursor ") {
		t.Fatalf("page 1 = %q, want one job line and a cursor footer", page1.String())
	}
	cursor := strings.TrimPrefix(lines[1], "next page: -cursor ")

	var page2 strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "-limit", "1", "-cursor", cursor, "list"}, &page2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page2.String(), "next page:") {
		t.Errorf("final page still advertises a cursor: %q", page2.String())
	}
	if jobID(t, page2.String()) == jobID(t, page1.String()) {
		t.Error("pages overlap")
	}

	var none strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "-state", "failed", "list"}, &none); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(none.String(), "no jobs") {
		t.Errorf("-state failed output = %q", none.String())
	}
	// A bogus state surfaces the server's 400.
	var b strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "-state", "bogus", "list"}, &b); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("-state bogus: err = %v, want the server's 400", err)
	}
}
