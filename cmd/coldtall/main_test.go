package main

import (
	"context"
	"net"
	"strings"
	"testing"

	"coldtall"
)

// bg shortens the background context the CLI tests thread through run.
var bg = context.Background()

func TestRunRequiresSubcommand(t *testing.T) {
	var b strings.Builder
	if err := run(bg, nil, &b); err == nil {
		t.Error("missing subcommand should error")
	}
}

// TestRunUnknownSubcommandNamesIt pins the error contract: the message
// carries the offending subcommand verbatim, with no double-wrapping.
func TestRunUnknownSubcommandNamesIt(t *testing.T) {
	var b strings.Builder
	err := run(bg, []string{"nope"}, &b)
	if err == nil {
		t.Fatal("unknown subcommand should error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown subcommand "nope"`) {
		t.Errorf("error %q does not name the subcommand", msg)
	}
	if strings.HasPrefix(msg, "nope: ") {
		t.Errorf("error %q is double-wrapped with the subcommand prefix", msg)
	}
}

// TestRunBadFlagNamesSubcommandAndFlag pins the other half of the error
// contract: a flag failure says which subcommand was being parsed and
// which flag broke.
func TestRunBadFlagNamesSubcommandAndFlag(t *testing.T) {
	var b strings.Builder
	err := run(bg, []string{"fig1", "-bogus"}, &b)
	if err == nil {
		t.Fatal("undefined flag should error")
	}
	msg := err.Error()
	for _, want := range []string{"fig1", "parsing flags", "-bogus"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestServeTakenPortFailsWithoutBanner pins that serve binds before it
// announces: a port already in use is an error, and nothing claims to be
// serving on it.
func TestServeTakenPortFailsWithoutBanner(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var b strings.Builder
	err = run(bg, []string{"serve", "-addr", ln.Addr().String()}, &b)
	if err == nil || !strings.Contains(err.Error(), ln.Addr().String()) {
		t.Fatalf("serve on a taken port: err = %v, want a listen error naming %s", err, ln.Addr())
	}
	if strings.Contains(b.String(), "serving") {
		t.Errorf("serve printed a banner before failing to bind:\n%s", b.String())
	}
}

func TestRunRejectsBadCooler(t *testing.T) {
	var b strings.Builder
	err := run(bg, []string{"fig1", "-cooler", "5W"}, &b)
	if err == nil {
		t.Fatal("unknown cooler should error")
	}
	msg := err.Error()
	for _, want := range []string{"fig1", "-cooler", `"5W"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestRunEvalWithoutConfigNamesFlag(t *testing.T) {
	var b strings.Builder
	err := run(bg, []string{"eval"}, &b)
	if err == nil {
		t.Fatal("eval without -config should error")
	}
	if msg := err.Error(); !strings.Contains(msg, "eval") || !strings.Contains(msg, "-config") {
		t.Errorf("error %q should name the subcommand and the missing flag", msg)
	}
}

func TestParseCooler(t *testing.T) {
	for _, name := range []string{"100kW", "1kW", "100W", "10W"} {
		c, err := parseCooler(name)
		if err != nil {
			t.Errorf("parseCooler(%s): %v", name, err)
		}
		if c.ThresholdK != 200 {
			t.Errorf("cooler threshold = %g, want 200", c.ThresholdK)
		}
	}
	if _, err := parseCooler("77K"); err == nil {
		t.Error("bad cooler name should error")
	}
}

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"table1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "5 GHz", "shared 16 MiB, 16 ways"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunFig1(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"fig1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig. 1") || !strings.Contains(b.String(), "387") {
		t.Errorf("fig1 output incomplete: %q", b.String()[:80])
	}
}

// TestRunWorkersFlag pins the CLI determinism contract: the same artifact
// rendered serially and with a forced worker pool is byte-identical.
func TestRunWorkersFlag(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run(bg, []string{"fig1", "-workers", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(bg, []string{"fig1", "-workers", "8"}, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Error("fig1 output differs between -workers 1 and -workers 8")
	}
}

// TestRunCancelledContextAborts pins the satellite contract: a dead signal
// context aborts a sweep-backed subcommand instead of running it out.
func TestRunCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	err := run(ctx, []string{"fig1"}, &b)
	if err == nil {
		t.Fatal("cancelled context should abort the sweep")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Errorf("error %q should mention cancellation", err)
	}
}

func TestRunSweep(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"sweep", "-cell", "PCM", "-corner", "optimistic", "-dies", "8"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"read latency", "footprint/die", "organization", "mm2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in sweep output", want)
		}
	}
}

func TestRunSweepEDRAMAt77K(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"sweep", "-cell", "3T-eDRAM", "-temp", "77"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "refresh power") {
		t.Error("eDRAM sweep should report refresh power")
	}
}

func TestRunSweepRejectsBadInputs(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"sweep", "-cell", "FLUX"}, &b); err == nil {
		t.Error("unknown cell should error")
	}
	if err := run(bg, []string{"sweep", "-cell", "PCM", "-corner", "middling"}, &b); err == nil {
		t.Error("unknown corner should error")
	}
	if err := run(bg, []string{"sweep", "-dies", "3"}, &b); err == nil {
		t.Error("3 dies should error")
	}
}

// TestRunArtifactsList pins the catalog subcommand: every registry
// artifact appears by name with its export file, and the row order is the
// registry's paper order.
func TestRunArtifactsList(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"artifacts", "list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range coldtall.Artifacts().Names() {
		if !strings.Contains(out, name) {
			t.Errorf("catalog missing artifact %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "fig1.csv") || !strings.Contains(out, "Table II") {
		t.Errorf("catalog missing file or paper mapping:\n%s", out)
	}
	// Bare `artifacts` is the same listing.
	var bare strings.Builder
	if err := run(bg, []string{"artifacts"}, &bare); err != nil {
		t.Fatal(err)
	}
	if bare.String() != out {
		t.Error("`artifacts` and `artifacts list` differ")
	}
}

// TestRunArtifactsCSV pins `artifacts <name> -format csv` as the export
// path: the streamed bytes are RenderArtifactCSV's, header first.
func TestRunArtifactsCSV(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"artifacts", "-format", "csv", "table1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "parameter,value\n") {
		t.Errorf("CSV output does not start with the header: %q", b.String())
	}
}

func TestRunArtifactsRejectsBadInputs(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"artifacts", "fig2"}, &b); err == nil {
		t.Error("unknown artifact should error")
	}
	err := run(bg, []string{"artifacts", "-format", "xml", "fig1"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-format") {
		t.Errorf("bad format error should name the flag, got %v", err)
	}
}

// TestRunRegistryNameDispatch pins the generic dispatch: every registry
// name is a subcommand, including the extension artifacts that used to
// have bespoke renderers.
func TestRunRegistryNameDispatch(t *testing.T) {
	var b strings.Builder
	if err := run(bg, []string{"cooling"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cooler", "rel_total_power"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("cooling output missing %q", want)
		}
	}
}

// TestRunStudySubcommands reaches every study subcommand through run's
// dispatch: each must succeed and print its key text, and verify must
// report no failing or erroring claim.
func TestRunStudySubcommands(t *testing.T) {
	cases := []struct{ cmd, want string }{
		{"coldtall", "best warm eNVM"},
		{"reliability", "SECDED(72,64)"},
		{"techaxes", "Deep-cryogenic"},
		{"exclusions", "1T1C-eDRAM reads destructively"},
		{"impact", "Cross-stack system impact"},
		{"nodes", "Node scaling"},
		{"survey", "Per-technology spread"},
		{"thermal", "Thermally self-consistent"},
		{"traffic", "Bounded-window caveats"},
		{"verify", "claims reproduced"},
		{"all", "Table II: Optimal LLC"},
	}
	for _, tc := range cases {
		t.Run(tc.cmd, func(t *testing.T) {
			var b strings.Builder
			if err := run(bg, []string{tc.cmd, "-plot=false"}, &b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, tc.want) {
				t.Errorf("%s output missing %q:\n%s", tc.cmd, tc.want, out)
			}
			if tc.cmd == "verify" && (strings.Contains(out, "FAIL") || strings.Contains(out, "ERROR")) {
				t.Errorf("verify reports a failing claim:\n%s", out)
			}
		})
	}
}
