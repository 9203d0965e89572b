package coldtall

import (
	"strings"
	"testing"
)

func TestSurveySweepCoversDatabase(t *testing.T) {
	rows, err := study(t).SurveySweep("xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	// 9 PCM + 8 STT + 8 RRAM datapoints (SOT excluded).
	if len(rows) != 25 {
		t.Fatalf("survey sweep has %d rows, want 25", len(rows))
	}
	for _, r := range rows {
		if r.RelPower <= 0 || r.RelLatency <= 0 {
			t.Errorf("%s: non-positive relatives", r.Name)
		}
	}
}

func TestTentpolesBoundTheSurveyDistribution(t *testing.T) {
	// The whole point of the tentpole methodology: the composite corners
	// envelop every individual published datapoint at the application
	// level too.
	spreads, err := study(t).SurveySpreads("xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	if len(spreads) != 3 {
		t.Fatalf("got %d spreads, want PCM/STT/RRAM", len(spreads))
	}
	for _, sp := range spreads {
		if sp.OptimisticPower > sp.MinPower*1.02 {
			t.Errorf("%s: optimistic tentpole %.4f above the survey minimum %.4f",
				sp.Tech, sp.OptimisticPower, sp.MinPower)
		}
		if sp.PessimisticPower < sp.MaxPower*0.98 {
			t.Errorf("%s: pessimistic tentpole %.4f below the survey maximum %.4f",
				sp.Tech, sp.PessimisticPower, sp.MaxPower)
		}
		if !(sp.MinPower <= sp.MedianPower && sp.MedianPower <= sp.MaxPower) {
			t.Errorf("%s: quantiles out of order", sp.Tech)
		}
		if sp.Points < 8 {
			t.Errorf("%s: only %d survey points", sp.Tech, sp.Points)
		}
	}
}

func TestRenderSurvey(t *testing.T) {
	tables, err := study(t).SurveyTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want the sweep and the spreads", len(tables))
	}
	out := tables[0].String() + tables[1].String()
	for _, want := range []string{"Survey sweep", "tentpole opt", "pcm-b", "stt-e"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
