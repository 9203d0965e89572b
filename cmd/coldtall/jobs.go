package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"coldtall"
	"coldtall/internal/job"
)

// runJobs implements the async-job client family against a running serve
// instance:
//
//	coldtall jobs [-server URL] [-api-key KEY] list [-state S] [-limit N] [-cursor ID]
//	coldtall jobs [-server URL] submit <artifact|spec.json|->
//	coldtall jobs [-server URL] status <id>
//	coldtall jobs [-server URL] wait <id>     # poll to a terminal state, print the result
//	coldtall jobs [-server URL] watch <id>    # live SSE progress (stderr), then the result
//	coldtall jobs [-server URL] cancel <id>
//
// submit accepts either a registry artifact name (shorthand for an
// artifact job), a path to a job-spec JSON file, or "-" for a spec on
// stdin. -api-key authenticates every verb as a configured tenant.
func runJobs(ctx context.Context, w io.Writer, f cliFlags) error {
	c := jobsClient{base: strings.TrimRight(f.server, "/"), key: f.apiKey}
	verb := f.args.arg(0)
	switch verb {
	case "", "list":
		return c.list(ctx, w, f)
	case "submit":
		return c.submit(ctx, w, f.args.arg(1))
	case "status":
		return c.status(ctx, w, f.args.arg(1))
	case "wait":
		return c.wait(ctx, w, f.args.arg(1), f.poll)
	case "watch":
		return c.watch(ctx, w, f.args.arg(1))
	case "cancel":
		return c.cancel(ctx, w, f.args.arg(1))
	}
	return fmt.Errorf("unknown jobs verb %q (want list, submit, status, wait, watch, cancel)", verb)
}

// jobsClient speaks the /v1/jobs API of a running serve instance. A
// non-empty key rides along on every request as a bearer token.
type jobsClient struct {
	base string
	key  string
}

// newRequest builds one request against the serve base URL with the
// tenant key attached.
func (c jobsClient) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	return req, nil
}

// do issues one request and decodes the JSON status answer; non-2xx
// responses surface the server's error text.
func (c jobsClient) do(ctx context.Context, method, path string, body []byte) (job.Status, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return job.Status{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return job.Status{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return job.Status{}, err
	}
	if resp.StatusCode >= 300 {
		return job.Status{}, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(payload)))
	}
	var st job.Status
	if err := json.Unmarshal(payload, &st); err != nil {
		return job.Status{}, fmt.Errorf("%s %s: decoding status: %w", method, path, err)
	}
	return st, nil
}

// requireID guards the id-taking verbs against a missing argument.
func requireID(verb, id string) error {
	if id == "" {
		return fmt.Errorf("jobs %s: a job ID is required (see `coldtall jobs list`)", verb)
	}
	return nil
}

// list prints the job table, optionally filtered by -state and paged by
// -limit/-cursor. When a page is truncated the footer names the cursor
// that resumes the listing.
func (c jobsClient) list(ctx context.Context, w io.Writer, f cliFlags) error {
	q := url.Values{}
	if f.jobState != "" {
		q.Set("state", f.jobState)
	}
	if f.jobLimit > 0 {
		q.Set("limit", strconv.Itoa(f.jobLimit))
	}
	if f.jobCursor != "" {
		q.Set("cursor", f.jobCursor)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(payload)))
	}
	var table struct {
		Jobs       []job.Status `json:"jobs"`
		NextCursor string       `json:"next_cursor"`
	}
	if err := json.Unmarshal(payload, &table); err != nil {
		return fmt.Errorf("decoding job list: %w", err)
	}
	if len(table.Jobs) == 0 {
		fmt.Fprintln(w, "no jobs")
		return nil
	}
	for _, st := range table.Jobs {
		printStatus(w, st)
	}
	if table.NextCursor != "" {
		fmt.Fprintf(w, "next page: -cursor %s\n", table.NextCursor)
	}
	return nil
}

// submit resolves its argument (artifact name, spec file, or "-") into a
// spec payload, posts it, and prints the resulting status line.
func (c jobsClient) submit(ctx context.Context, w io.Writer, arg string) error {
	if arg == "" {
		return fmt.Errorf("jobs submit: an artifact name, a spec file, or - (stdin) is required")
	}
	var spec []byte
	switch {
	case func() bool { _, ok := coldtall.Artifacts().Lookup(arg); return ok }():
		spec = []byte(fmt.Sprintf(`{"kind":"artifact","artifact":%q}`, arg))
	case arg == "-":
		var err error
		if spec, err = io.ReadAll(os.Stdin); err != nil {
			return fmt.Errorf("jobs submit: reading stdin: %w", err)
		}
	default:
		var err error
		if spec, err = os.ReadFile(arg); err != nil {
			return fmt.Errorf("jobs submit: %w", err)
		}
	}
	st, err := c.do(ctx, http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return err
	}
	printStatus(w, st)
	return nil
}

func (c jobsClient) status(ctx context.Context, w io.Writer, id string) error {
	if err := requireID("status", id); err != nil {
		return err
	}
	st, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	printStatus(w, st)
	return nil
}

// wait polls the job to a terminal state, then streams the result payload
// (sweep JSON or artifact CSV) to w. Failed and cancelled jobs become
// errors so shell pipelines see a non-zero exit.
func (c jobsClient) wait(ctx context.Context, w io.Writer, id string, poll time.Duration) error {
	if err := requireID("wait", id); err != nil {
		return err
	}
	for {
		st, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			return c.finish(ctx, w, id, st)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// watch subscribes to the job's live SSE stream: every status event
// becomes a progress line on stderr, and the terminal state resolves
// exactly like wait — the done job's result bytes go to w, so
// `jobs watch` and `jobs wait` are byte-identical on stdout. If the
// server drains mid-stream (or the stream drops), one final status poll
// settles the outcome.
func (c jobsClient) watch(ctx context.Context, w io.Writer, id string) error {
	if err := requireID("watch", id); err != nil {
		return err
	}
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET /v1/jobs/%s: %s: %s", id, resp.Status, strings.TrimSpace(string(payload)))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return fmt.Errorf("jobs watch: server answered %q, not an event stream (is it a serve instance?)", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var event, data string
	drained := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var st job.Status
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return fmt.Errorf("jobs watch: decoding event: %w", err)
			}
			if event == "drain" {
				drained = true
			} else {
				printStatus(os.Stderr, st)
				if st.State.Terminal() {
					return c.finish(ctx, w, id, st)
				}
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("jobs watch: stream: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The stream closed without a terminal event — the server drained or
	// the connection dropped. One status poll settles the outcome.
	st, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		if drained {
			return fmt.Errorf("jobs watch: server drained mid-stream; job %s unresolved: %w", id, err)
		}
		return fmt.Errorf("jobs watch: stream closed; job %s unresolved: %w", id, err)
	}
	if st.State.Terminal() {
		return c.finish(ctx, w, id, st)
	}
	return fmt.Errorf("jobs watch: stream closed with job %s still %s (rerun `coldtall jobs wait %s`)", id, st.State, id)
}

// finish resolves a terminal status the way shell pipelines expect:
// done streams the result to w, failed and cancelled become errors.
func (c jobsClient) finish(ctx context.Context, w io.Writer, id string, st job.Status) error {
	switch st.State {
	case job.StateDone:
		return c.result(ctx, w, id)
	case job.StateFailed:
		return fmt.Errorf("job %s failed: %s", id, st.Error)
	default:
		return fmt.Errorf("job %s was cancelled", id)
	}
}

// result streams the done job's payload verbatim.
func (c jobsClient) result(ctx context.Context, w io.Writer, id string) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET /v1/jobs/%s/result: %s: %s", id, resp.Status, strings.TrimSpace(string(payload)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func (c jobsClient) cancel(ctx context.Context, w io.Writer, id string) error {
	if err := requireID("cancel", id); err != nil {
		return err
	}
	st, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	printStatus(w, st)
	return nil
}

// printStatus renders one job as a single parseable line: ID first, then
// state, progress, and kind.
func printStatus(w io.Writer, st job.Status) {
	line := fmt.Sprintf("%s  %-9s  %d/%d  %s", st.ID, st.State, st.Done, st.Total, st.Kind)
	if st.Artifact != "" {
		line += " " + st.Artifact
	}
	if st.Error != "" {
		line += "  error: " + st.Error
	}
	fmt.Fprintln(w, line)
}
