// Package diag captures flight-recorder diagnostic bundles: one
// directory holding everything needed for a postmortem of a PDS² node —
// metrics snapshot and history, structured logs, trace spans (raw and
// Chrome trace-event export), goroutine/heap/mutex/block profiles, an
// optional timed CPU profile, the health report and build identity —
// plus a manifest with a checksum per artifact so a bundle shipped
// around for analysis can prove it is complete and uncorrupted.
//
// CaptureRemote pulls everything over a running node's HTTP API (the
// operator's "grab me a bundle from prod" path); Verify checks the
// bundle it writes.
package diag

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pds2/internal/api"
	"pds2/internal/telemetry"
)

// ManifestSchema versions the bundle layout for forward compatibility.
const ManifestSchema = "pds2/diag/v1"

// ManifestName is the manifest's file name inside a bundle directory.
const ManifestName = "manifest.json"

// Artifact describes one captured file. A failed capture keeps its
// entry with Err set and no file, so the manifest records what was
// attempted, not just what succeeded — a bundle from a node with pprof
// disabled says so instead of silently lacking profiles.
type Artifact struct {
	// Name is the logical artifact name ("metrics", "cpu_profile", ...).
	Name string `json:"name"`

	// File is the name inside the bundle directory, empty when Err set.
	File string `json:"file,omitempty"`

	// Bytes and SHA256 fingerprint the file for integrity verification.
	Bytes  int64  `json:"bytes,omitempty"`
	SHA256 string `json:"sha256,omitempty"`

	// Err records why capture failed, empty on success.
	Err string `json:"err,omitempty"`
}

// Manifest indexes a bundle.
type Manifest struct {
	Schema     string              `json:"schema"`
	CapturedNS int64               `json:"captured_unix_ns"`
	Source     string              `json:"source"` // node URL
	Node       string              `json:"node,omitempty"`
	Build      telemetry.BuildInfo `json:"build"`
	Artifacts  []Artifact          `json:"artifacts"`
}

// Artifact returns the named entry.
func (m Manifest) Artifact(name string) (Artifact, bool) {
	for _, a := range m.Artifacts {
		if a.Name == name {
			return a, true
		}
	}
	return Artifact{}, false
}

// Options shapes a capture.
type Options struct {
	// OutDir is the bundle directory; it is created if missing. Empty
	// selects pds2-diag-<unix-ms> under the OS temp directory.
	OutDir string

	// CPUSeconds > 0 additionally captures a timed CPU profile — the
	// expensive artifact, so it is opt-in.
	CPUSeconds int

	// Window trims the metrics history artifact (0 takes the full ring).
	Window time.Duration

	// LogComponent filters the logs artifact ("" takes every component).
	LogComponent string
}

func (o Options) outDir() (string, error) {
	dir := o.OutDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), fmt.Sprintf("pds2-diag-%d", time.Now().UnixMilli()))
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// capture accumulates artifacts and writes the manifest at the end.
type capture struct {
	dir      string
	manifest Manifest
}

// add writes one artifact file (or records the error that prevented it).
func (c *capture) add(name, file string, data []byte, err error) {
	if err != nil {
		c.manifest.Artifacts = append(c.manifest.Artifacts, Artifact{Name: name, Err: err.Error()})
		return
	}
	if err := os.WriteFile(filepath.Join(c.dir, file), data, 0o644); err != nil {
		c.manifest.Artifacts = append(c.manifest.Artifacts, Artifact{Name: name, Err: err.Error()})
		return
	}
	sum := sha256.Sum256(data)
	c.manifest.Artifacts = append(c.manifest.Artifacts, Artifact{
		Name:   name,
		File:   file,
		Bytes:  int64(len(data)),
		SHA256: hex.EncodeToString(sum[:]),
	})
}

// addJSON marshals v (pretty, so bundles are human-greppable) as one
// artifact.
func (c *capture) addJSON(name, file string, v any, err error) {
	if err != nil {
		c.add(name, file, nil, err)
		return
	}
	data, merr := json.MarshalIndent(v, "", " ")
	c.add(name, file, data, merr)
}

// finish writes the manifest and returns it.
func (c *capture) finish() (Manifest, error) {
	sort.Slice(c.manifest.Artifacts, func(i, j int) bool {
		return c.manifest.Artifacts[i].Name < c.manifest.Artifacts[j].Name
	})
	data, err := json.MarshalIndent(c.manifest, "", " ")
	if err != nil {
		return c.manifest, err
	}
	return c.manifest, os.WriteFile(filepath.Join(c.dir, ManifestName), data, 0o644)
}

// Failed returns the names of artifacts whose capture failed.
func (m Manifest) Failed() []string {
	var out []string
	for _, a := range m.Artifacts {
		if a.Err != "" {
			out = append(out, a.Name)
		}
	}
	return out
}

// CaptureRemote pulls a bundle from a running node over its HTTP API.
// Individual artifact failures (telemetry disabled, pprof off, history
// off) are recorded in the manifest rather than failing the capture —
// a partial bundle beats none during an incident. The error return is
// reserved for failures to produce the bundle itself (bad directory,
// manifest write).
func CaptureRemote(ctx context.Context, client *api.Client, opts Options) (string, Manifest, error) {
	dir, err := opts.outDir()
	if err != nil {
		return "", Manifest{}, err
	}
	c := &capture{dir: dir, manifest: Manifest{
		Schema:     ManifestSchema,
		CapturedNS: time.Now().UnixNano(),
		Source:     client.BaseURL(),
	}}

	if bi, err := client.BuildInfo(ctx); err == nil {
		c.manifest.Build = bi
		c.addJSON("build", "build.json", bi, nil)
	} else {
		c.manifest.Build = telemetry.CollectBuildInfo() // best effort: the capturing binary
		c.addJSON("build", "build.json", nil, err)
	}

	snap, err := client.Metrics(ctx)
	c.addJSON("metrics", "metrics.json", snap, err)
	hist, err := client.MetricsHistory(ctx, opts.Window)
	c.addJSON("metrics_history", "metrics_history.json", hist, err)
	if err == nil {
		c.manifest.Node = hist.Node
	}
	logs, err := client.Logs(ctx, opts.LogComponent)
	c.addJSON("logs", "logs.json", logs, err)
	health, err := client.Healthz(ctx)
	c.addJSON("health", "health.json", health, err)

	trace, err := client.Trace(ctx)
	c.addJSON("trace", "trace.json", trace, err)
	if err == nil {
		chrome, cerr := trace.ChromeTraceJSON()
		c.add("trace_chrome", "trace_chrome.json", chrome, cerr)
	} else {
		c.add("trace_chrome", "trace_chrome.json", nil, err)
	}

	for _, p := range []string{"goroutine", "heap", "mutex", "block"} {
		data, err := client.Pprof(ctx, p, 0)
		c.add(p, p+".pprof", data, err)
	}
	if opts.CPUSeconds > 0 {
		data, err := client.Pprof(ctx, "profile", opts.CPUSeconds)
		c.add("cpu_profile", "cpu.pprof", data, err)
	}

	m, err := c.finish()
	return dir, m, err
}

// requiredArtifacts is the set Verify insists on: a bundle missing any
// of these (successfully captured or not even attempted) is not a
// usable flight recording.
var requiredArtifacts = []string{
	"build", "metrics", "metrics_history", "logs", "trace", "trace_chrome",
	"goroutine", "heap", "mutex", "block",
}

// Verify checks a bundle directory end to end: the manifest parses,
// every required artifact has an entry, every successful artifact's
// file exists with matching size and SHA-256, JSON artifacts parse into
// their wire types, and .pprof artifacts decode as complete gzip
// streams (the pprof container format), CRC included. It returns the
// manifest and the first problem found.
func Verify(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("diag: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("diag: bad manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return m, fmt.Errorf("diag: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	for _, name := range requiredArtifacts {
		if _, ok := m.Artifact(name); !ok {
			return m, fmt.Errorf("diag: required artifact %q missing from manifest", name)
		}
	}
	for _, a := range m.Artifacts {
		if a.Err != "" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, a.File))
		if err != nil {
			return m, fmt.Errorf("diag: artifact %q: %w", a.Name, err)
		}
		if int64(len(data)) != a.Bytes {
			return m, fmt.Errorf("diag: artifact %q: %d bytes on disk, manifest says %d", a.Name, len(data), a.Bytes)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != a.SHA256 {
			return m, fmt.Errorf("diag: artifact %q: checksum mismatch", a.Name)
		}
		if err := parseArtifact(a, data); err != nil {
			return m, fmt.Errorf("diag: artifact %q: %w", a.Name, err)
		}
	}
	return m, nil
}

// parseArtifact type-checks an artifact's content by name.
func parseArtifact(a Artifact, data []byte) error {
	switch a.Name {
	case "build":
		var v telemetry.BuildInfo
		return json.Unmarshal(data, &v)
	case "metrics":
		var v telemetry.Snapshot
		return json.Unmarshal(data, &v)
	case "metrics_history":
		var v telemetry.HistoryDump
		return json.Unmarshal(data, &v)
	case "logs":
		var v api.LogsResponse
		return json.Unmarshal(data, &v)
	case "health":
		var v telemetry.HealthReport
		return json.Unmarshal(data, &v)
	case "trace":
		var v telemetry.Trace
		return json.Unmarshal(data, &v)
	case "trace_chrome":
		var v struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.TraceEvents == nil {
			return fmt.Errorf("no traceEvents array")
		}
		return nil
	default:
		if strings.HasSuffix(a.File, ".pprof") {
			// pprof's wire format is gzipped protobuf; a full decode
			// (gzip CRC at the tail) proves the capture wasn't truncated.
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err != nil {
				return fmt.Errorf("not gzipped pprof: %w", err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				return fmt.Errorf("truncated pprof stream: %w", err)
			}
			return zr.Close()
		}
		return nil
	}
}
