// OpenAPI document generation. The document is derived from the same
// route table buildHandler registers (routes.go) and the same artifact
// registry the artifact handlers serve, so the published description and
// the actual API cannot drift — the e2e artifacts scenario additionally
// pins the served document against the CLI's offline rendering.

package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"

	"coldtall"
	"coldtall/internal/explorer"
)

// OpenAPIJSON renders the versioned OpenAPI 3.0 document. It is a pure
// function of the route table, the artifact registry, and the model
// version (encoding/json sorts map keys, so the bytes are deterministic):
// the server computes it once at construction, and the CLI's "openapi"
// subcommand prints the identical bytes without a server.
func OpenAPIJSON() []byte {
	paths := map[string]any{}
	tagSet := map[string]bool{}
	for _, rt := range apiRoutes() {
		tagSet[rt.tag] = true
		item, _ := paths[openapiPath(rt.pattern)].(map[string]any)
		if item == nil {
			item = map[string]any{}
			paths[openapiPath(rt.pattern)] = item
		}
		item[strings.ToLower(rt.method)] = operation(rt)
	}
	tags := make([]string, 0, len(tagSet))
	for t := range tagSet {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	tagObjs := make([]any, len(tags))
	for i, t := range tags {
		tagObjs[i] = map[string]any{"name": t}
	}
	doc := map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title": "coldtall design-space-exploration service",
			"description": "HTTP API over the cryogenic + 3D embedded cache memory study: " +
				"design-point characterization and evaluation, sweep grids, Pareto search, " +
				"paper artifacts, custom workload ingestion, and async jobs with live progress streaming.",
			"version": explorer.ModelVersion,
		},
		"paths": paths,
		"tags":  tagObjs,
		"components": map[string]any{
			"securitySchemes": map[string]any{
				"bearerKey": map[string]any{
					"type":        "http",
					"scheme":      "bearer",
					"description": "Tenant API key; omit for the anonymous tier.",
				},
				"headerKey": map[string]any{
					"type": "apiKey",
					"in":   "header",
					"name": "X-Coldtall-Key",
				},
			},
			"schemas": artifactSchemas(),
		},
		"security": []any{
			map[string]any{},
			map[string]any{"bearerKey": []any{}},
			map[string]any{"headerKey": []any{}},
		},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// The document is plain data built above; Marshal cannot fail on it.
		panic(err)
	}
	return append(b, '\n')
}

// openapiPath converts a net/http mux pattern to an OpenAPI path (the
// {name} syntax is already shared; this is the identity today but keeps
// the conversion in one place).
func openapiPath(pattern string) string { return pattern }

// operation renders one route's operation object.
func operation(rt routeSpec) map[string]any {
	op := map[string]any{
		"summary": rt.summary,
		"tags":    []any{rt.tag},
		"responses": map[string]any{
			"default": map[string]any{"description": "See summary; errors are plain-text with standard status codes. " +
				"429 responses carry Retry-After and, when budget-limited, X-Budget-Limit/X-Budget-Remaining."},
		},
	}
	var params []any
	for _, seg := range strings.Split(rt.pattern, "/") {
		if len(seg) > 2 && seg[0] == '{' && seg[len(seg)-1] == '}' {
			p := map[string]any{
				"name":     seg[1 : len(seg)-1],
				"in":       "path",
				"required": true,
				"schema":   map[string]any{"type": "string"},
			}
			if rt.pattern == "/v1/artifacts/{name}" {
				names := coldtall.Artifacts().Names()
				enum := make([]any, len(names))
				for i, n := range names {
					enum[i] = n
				}
				p["schema"] = map[string]any{"type": "string", "enum": enum}
			}
			params = append(params, p)
		}
	}
	for _, q := range rt.query {
		params = append(params, map[string]any{
			"name":        q.name,
			"in":          "query",
			"required":    false,
			"description": q.desc,
			"schema":      map[string]any{"type": "string"},
		})
	}
	if params != nil {
		op["parameters"] = params
	}
	if rt.jsonBody {
		op["requestBody"] = map[string]any{
			"required": true,
			"content":  map[string]any{"application/json": map[string]any{"schema": map[string]any{"type": "object"}}},
		}
	}
	return op
}

// artifactSchemas renders every registry artifact's typed column schema
// as a named component, so API consumers see the full catalog (and its
// units) without calling /v1/artifacts.
func artifactSchemas() map[string]any {
	schemas := map[string]any{}
	for _, d := range coldtall.Artifacts().Descriptors() {
		cols := make([]any, len(d.Columns))
		for i, c := range d.Columns {
			col := map[string]any{"name": c.Name, "kind": c.Kind.String()}
			if c.Unit != "" {
				col["unit"] = c.Unit
			}
			cols[i] = col
		}
		schemas["artifact_"+d.Name] = map[string]any{
			"type":        "object",
			"description": d.Title,
			"properties": map[string]any{
				"rows": map[string]any{
					"type":  "array",
					"items": map[string]any{"type": "array"},
				},
			},
			"x-paper":   d.Paper,
			"x-columns": cols,
		}
	}
	return schemas
}

// handleOpenAPI serves the pre-rendered document.
func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.openapi)
}
