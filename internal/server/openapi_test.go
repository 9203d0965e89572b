package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"coldtall"
)

// TestOpenAPIServedMatchesGenerator pins the drift-free property: the
// bytes served at /v1/openapi.json are exactly OpenAPIJSON()'s (the same
// function the CLI's "openapi" subcommand prints), and repeated
// renderings are identical (deterministic output).
func TestOpenAPIServedMatchesGenerator(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rr := get(t, s.handler, "/v1/openapi.json")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !bytes.Equal(rr.Body.Bytes(), OpenAPIJSON()) {
		t.Error("served document differs from OpenAPIJSON()")
	}
	if !bytes.Equal(OpenAPIJSON(), OpenAPIJSON()) {
		t.Error("OpenAPIJSON is not deterministic")
	}
}

// TestOpenAPICoversRoutesAndArtifacts asserts every route in the table
// appears as a path with its method, the version is the model version,
// and every registry artifact contributes a schema and its name to the
// /v1/artifacts/{name} enum.
func TestOpenAPICoversRoutesAndArtifacts(t *testing.T) {
	var doc struct {
		Info struct {
			Version string `json:"version"`
		} `json:"info"`
		Paths map[string]map[string]json.RawMessage `json:"paths"`
		Comps struct {
			Schemas map[string]json.RawMessage `json:"schemas"`
		} `json:"components"`
	}
	raw := OpenAPIJSON()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Info.Version == "" {
		t.Error("document has no version")
	}
	for _, rt := range apiRoutes() {
		ops, ok := doc.Paths[rt.pattern]
		if !ok {
			t.Errorf("route %s missing from paths", rt.pattern)
			continue
		}
		if _, ok := ops[strings.ToLower(rt.method)]; !ok {
			t.Errorf("route %s missing method %s", rt.pattern, rt.method)
		}
		if rt.handler == nil {
			t.Errorf("route %s has no handler", rt.pattern)
		}
	}
	for _, d := range coldtall.Artifacts().Descriptors() {
		if _, ok := doc.Comps.Schemas["artifact_"+d.Name]; !ok {
			t.Errorf("artifact %s missing from schemas", d.Name)
		}
		if !bytes.Contains(raw, []byte(`"`+d.Name+`"`)) {
			t.Errorf("artifact name %s missing from the document", d.Name)
		}
	}
}
