package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"coldtall/internal/job"
	"coldtall/internal/workload"
)

// runWorkloads implements the workload-ingestion client family against a
// running serve instance:
//
//	coldtall workloads [-server URL] list
//	coldtall workloads [-server URL] add <spec.json|->   # POST + wait, print the record
//	coldtall workloads [-server URL] traffic <name>
//	coldtall workloads [-server URL] sig <name>          # locality signature
//	coldtall workloads [-server URL] similar <name>      # signature-distance ranking
//	coldtall workloads [-server URL] distill <name>      # fit a generator, wait, print the fit
//	coldtall workloads [-server URL] rm <name>
//
// add accepts an ingestion spec (a generator description or a base64
// .ctrace payload — see internal/ingest) from a file or stdin, submits it,
// waits for the ingest job to complete, and prints the registered source
// record.
func runWorkloads(ctx context.Context, w io.Writer, f cliFlags) error {
	c := workloadsClient{jobsClient{base: strings.TrimRight(f.server, "/"), key: f.apiKey}}
	verb := f.args.arg(0)
	switch verb {
	case "", "list":
		return c.list(ctx, w)
	case "add":
		return c.add(ctx, w, f.args.arg(1))
	case "traffic":
		return c.traffic(ctx, w, f.args.arg(1))
	case "sig":
		return c.sig(ctx, w, f.args.arg(1))
	case "similar":
		return c.similar(ctx, w, f.args.arg(1))
	case "distill":
		return c.distill(ctx, w, f.args.arg(1))
	case "rm":
		return c.rm(ctx, w, f.args.arg(1))
	}
	return fmt.Errorf("unknown workloads verb %q (want list, add, traffic, sig, similar, distill, rm)", verb)
}

// workloadsClient speaks the /v1/workloads API, reusing the jobs client
// for the async-submission leg.
type workloadsClient struct {
	jobsClient
}

// list prints one line per catalog entry: the 23 static SPEC benchmarks,
// then any ingested workloads.
func (c workloadsClient) list(ctx context.Context, w io.Writer) error {
	var table struct {
		Workloads []workload.Source `json:"workloads"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &table); err != nil {
		return err
	}
	for _, s := range table.Workloads {
		printSource(w, s)
	}
	return nil
}

// add submits the ingestion spec, waits for its job, and prints the
// registered record.
func (c workloadsClient) add(ctx context.Context, w io.Writer, arg string) error {
	if arg == "" {
		return fmt.Errorf("workloads add: a spec file or - (stdin) is required")
	}
	var spec []byte
	var err error
	if arg == "-" {
		if spec, err = io.ReadAll(os.Stdin); err != nil {
			return fmt.Errorf("workloads add: reading stdin: %w", err)
		}
	} else if spec, err = os.ReadFile(arg); err != nil {
		return fmt.Errorf("workloads add: %w", err)
	}
	var posted job.Status
	if err := c.do(ctx, http.MethodPost, "/v1/workloads", spec, &posted); err != nil {
		return err
	}
	st, err := c.await(ctx, posted.ID)
	if err != nil {
		return err
	}
	switch st.State {
	case job.StateDone:
		var src workload.Source
		if err := c.do(ctx, http.MethodGet, "/v1/workloads/"+st.Workload, nil, &src); err != nil {
			return err
		}
		printSource(w, src)
		return nil
	case job.StateFailed:
		return fmt.Errorf("ingest job %s failed: %s", st.ID, st.Error)
	default:
		return fmt.Errorf("ingest job %s was cancelled", st.ID)
	}
}

// traffic prints one workload's derived continuous-operation LLC rates —
// the numbers the traffic-dependent artifacts plot it by.
func (c workloadsClient) traffic(ctx context.Context, w io.Writer, name string) error {
	if name == "" {
		return fmt.Errorf("workloads traffic: a workload name is required (see `coldtall workloads list`)")
	}
	var src workload.Source
	if err := c.do(ctx, http.MethodGet, "/v1/workloads/"+name, nil, &src); err != nil {
		return err
	}
	fmt.Fprintf(w, "workload  = %s (%s)\n", src.Name, src.Kind)
	if src.Description != "" {
		fmt.Fprintf(w, "about     = %s\n", src.Description)
	}
	fmt.Fprintf(w, "reads/s   = %.3g\n", src.Traffic.ReadsPerSec)
	fmt.Fprintf(w, "writes/s  = %.3g\n", src.Traffic.WritesPerSec)
	if src.Accesses > 0 {
		fmt.Fprintf(w, "accesses  = %d\n", src.Accesses)
	}
	if src.TraceSHA256 != "" {
		fmt.Fprintf(w, "trace     = sha256:%s\n", src.TraceSHA256)
	}
	return nil
}

// sig prints a workload's locality signature summary — the compact reuse
// and mix statistics the ingestion replay computed while streaming the
// trace. Aliases answer with their canonical workload's signature, with
// the resolution shown.
func (c workloadsClient) sig(ctx context.Context, w io.Writer, name string) error {
	if name == "" {
		return fmt.Errorf("workloads sig: a workload name is required (see `coldtall workloads list`)")
	}
	var resp struct {
		Workload  string `json:"workload"`
		Canonical string `json:"canonical"`
		SHA256    string `json:"sha256"`
		Signature struct {
			Accesses uint64 `json:"accesses"`
		} `json:"signature"`
		ReadFrac       float64 `json:"read_frac"`
		SeqFrac        float64 `json:"seq_frac"`
		FootprintBytes uint64  `json:"footprint_bytes"`
		ReuseP50       uint64  `json:"reuse_p50"`
		ReuseP90       uint64  `json:"reuse_p90"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/workloads/"+name+"/signature", nil, &resp); err != nil {
		return err
	}
	fmt.Fprintf(w, "workload  = %s\n", resp.Workload)
	if resp.Canonical != "" {
		fmt.Fprintf(w, "canonical = %s (alias)\n", resp.Canonical)
	}
	fmt.Fprintf(w, "sha256    = %s\n", resp.SHA256)
	fmt.Fprintf(w, "accesses  = %d\n", resp.Signature.Accesses)
	fmt.Fprintf(w, "reads     = %.3f of accesses\n", resp.ReadFrac)
	fmt.Fprintf(w, "seq       = %.3f of accesses\n", resp.SeqFrac)
	fmt.Fprintf(w, "footprint = %d bytes\n", resp.FootprintBytes)
	fmt.Fprintf(w, "reuse p50 = %d distinct blocks\n", resp.ReuseP50)
	fmt.Fprintf(w, "reuse p90 = %d distinct blocks\n", resp.ReuseP90)
	return nil
}

// similar prints the signature-distance ranking of the other registered
// workloads: anything at or under the threshold is what ingest-time dedup
// would have aliased.
func (c workloadsClient) similar(ctx context.Context, w io.Writer, name string) error {
	if name == "" {
		return fmt.Errorf("workloads similar: a workload name is required (see `coldtall workloads list`)")
	}
	var resp struct {
		Workload  string  `json:"workload"`
		Threshold float64 `json:"threshold"`
		Matches   []struct {
			Name     string  `json:"name"`
			Distance float64 `json:"distance"`
		} `json:"matches"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/workloads/"+name+"/similar", nil, &resp); err != nil {
		return err
	}
	if len(resp.Matches) == 0 {
		fmt.Fprintf(w, "no other workloads carry a locality signature to compare %s against\n", resp.Workload)
		return nil
	}
	for _, m := range resp.Matches {
		line := fmt.Sprintf("%-16s distance %.4g", m.Name, m.Distance)
		if m.Distance <= resp.Threshold {
			line += "  (within dedup threshold)"
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// distill submits the trace-to-generator distillation job, waits for it,
// and prints the fit: the recovered generator parameters, the relative
// traffic error against the pinned tolerance, and the storage drop when
// the trace bytes were replaced by the spec.
func (c workloadsClient) distill(ctx context.Context, w io.Writer, name string) error {
	if name == "" {
		return fmt.Errorf("workloads distill: a workload name is required (see `coldtall workloads list`)")
	}
	var posted job.Status
	if err := c.do(ctx, http.MethodPost, "/v1/workloads/"+name+"/distill", nil, &posted); err != nil {
		return err
	}
	st, err := c.await(ctx, posted.ID)
	if err != nil {
		return err
	}
	switch st.State {
	case job.StateDone:
	case job.StateFailed:
		return fmt.Errorf("distill job %s failed: %s", st.ID, st.Error)
	default:
		return fmt.Errorf("distill job %s was cancelled", st.ID)
	}
	var res struct {
		Workload     string          `json:"workload"`
		Spec         json.RawMessage `json:"spec"`
		RelErr       float64         `json:"rel_err"`
		Tolerance    float64         `json:"tolerance"`
		Accepted     bool            `json:"accepted"`
		Evals        int             `json:"evals"`
		TraceBytes   int             `json:"trace_bytes"`
		SpecBytes    int             `json:"spec_bytes"`
		StorageRatio float64         `json:"storage_ratio"`
		TraceDeleted bool            `json:"trace_deleted"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &res); err != nil {
		return err
	}
	fmt.Fprintf(w, "workload  = %s\n", res.Workload)
	fmt.Fprintf(w, "accepted  = %t (rel err %.4f vs tolerance %.4f, %d evals)\n", res.Accepted, res.RelErr, res.Tolerance, res.Evals)
	if res.TraceBytes > 0 && res.SpecBytes > 0 {
		fmt.Fprintf(w, "storage   = %d -> %d bytes (%.0fx)\n", res.TraceBytes, res.SpecBytes, res.StorageRatio)
	}
	fmt.Fprintf(w, "trace     = deleted %t\n", res.TraceDeleted)
	fmt.Fprintf(w, "spec      = %s\n", res.Spec)
	return nil
}

// rm deletes an ingested workload; the server refuses static names and
// canonical entries that still have aliases (remove the aliases first).
func (c workloadsClient) rm(ctx context.Context, w io.Writer, name string) error {
	if name == "" {
		return fmt.Errorf("workloads rm: a workload name is required (see `coldtall workloads list`)")
	}
	var resp struct {
		Removed         workload.Source `json:"removed"`
		PurgedResponses int             `json:"purged_responses"`
	}
	if err := c.do(ctx, http.MethodDelete, "/v1/workloads/"+name, nil, &resp); err != nil {
		return err
	}
	fmt.Fprintf(w, "removed %s (%s); purged %d cached responses\n", resp.Removed.Name, resp.Removed.Kind, resp.PurgedResponses)
	return nil
}

// printSource renders one catalog entry as a single parseable line: name
// first, then kind and the derived traffic rates.
func printSource(w io.Writer, s workload.Source) {
	line := fmt.Sprintf("%-16s %-8s reads/s %.3g  writes/s %.3g", s.Name, s.Kind, s.Traffic.ReadsPerSec, s.Traffic.WritesPerSec)
	if s.Kind != workload.SourceStatic && s.Accesses > 0 {
		line += fmt.Sprintf("  (%d accesses)", s.Accesses)
	}
	fmt.Fprintln(w, line)
}
