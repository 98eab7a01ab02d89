package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client talks to a chimerad server. The zero HTTP client applies no
// overall timeout — Wait long-polls are bounded per request instead.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a chimerad base URL (e.g.
// "http://localhost:8377").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// do issues one JSON round trip. Error bodies ({"error": ...}) become Go
// errors carrying the server's message.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Submit posts a job spec and returns the accepted job's view.
func (c *Client) Submit(spec *JobSpec) (*JobView, error) {
	v := new(JobView)
	if err := c.do("POST", "/v1/jobs", spec, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Job polls one job.
func (c *Client) Job(id string) (*JobView, error) {
	v := new(JobView)
	if err := c.do("GET", "/v1/jobs/"+url.PathEscape(id), nil, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Wait long-polls until the job is terminal. The server bounds every
// job with its job timeout, so this terminates.
func (c *Client) Wait(id string) (*JobView, error) {
	for {
		v := new(JobView)
		err := c.do("GET", "/v1/jobs/"+url.PathEscape(id)+"/wait?timeout="+url.QueryEscape((30*time.Second).String()), nil, v)
		if err != nil {
			return nil, err
		}
		if v.Terminal() {
			return v, nil
		}
	}
}

// UploadLog streams a CHIMLOG2 log into an awaiting-log job.
func (c *Client) UploadLog(id string, r io.Reader) (int64, error) {
	req, err := http.NewRequest("PUT", c.base+"/v1/jobs/"+url.PathEscape(id)+"/log", r)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return 0, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return 0, fmt.Errorf("upload log: %s", resp.Status)
	}
	var out struct {
		LogBytes int64 `json:"log_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.LogBytes, nil
}

// DownloadLog streams a job's CHIMLOG2 spool to w.
func (c *Client) DownloadLog(id string, w io.Writer) (int64, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + url.PathEscape(id) + "/log")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return 0, fmt.Errorf("download log: %s", resp.Status)
	}
	return io.Copy(w, resp.Body)
}

// Metrics fetches the server's /metrics.json document.
func (c *Client) Metrics() (*obs.ServiceMetrics, error) {
	m := new(obs.ServiceMetrics)
	if err := c.do("GET", "/metrics.json", nil, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Trace fetches one retained trace by trace ID or job ID.
func (c *Client) Trace(id string) (*TraceRecord, error) {
	rec := new(TraceRecord)
	if err := c.do("GET", "/debug/traces/"+url.PathEscape(id), nil, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// RemoteRun is racecheck's -server client mode: it ships the parsed
// request to a chimerad server as an analyze job, waits for the verdict,
// and relays stdout/stderr/exit code verbatim. Because the server runs
// the identical RunRequest path, the relayed verdict is byte-identical
// to running the same command line offline. The one local step is
// reading the source file: the client inlines it so the server never
// touches client paths, while Args keeps the display path so output
// matches the offline run.
//
// -trace is handled client-side: the path never reaches the server.
// The job is asked to return its span tree (WantTrace) and the client
// renders it as a Perfetto file locally, so a server-mode trace covers
// queue wait, spool I/O, every pipeline stage, and verdict encode.
func RemoteRun(server, tenant string, req *Request, out, errOut io.Writer) int {
	tracePath := req.TracePath
	req.TracePath = ""
	if err := req.ValidateRemote(); err != nil {
		fmt.Fprintf(errOut, "racecheck: -server: %v\n", err)
		return ExitUsage
	}
	if len(req.Args) == 1 && !req.HasSource {
		b, err := os.ReadFile(req.Args[0])
		if err != nil {
			// Identical to the offline CLI's read failure.
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		req.Source = string(b)
		req.HasSource = true
	}
	c := NewClient(server)
	accepted, err := c.Submit(&JobSpec{
		Kind:      JobAnalyze,
		Tenant:    tenant,
		Request:   req,
		TraceID:   req.TraceID,
		WantTrace: tracePath != "",
	})
	if err != nil {
		fmt.Fprintf(errOut, "racecheck: server: %v\n", err)
		return ExitFailure
	}
	v, err := c.Wait(accepted.ID)
	if err != nil {
		fmt.Fprintf(errOut, "racecheck: server: %v\n", err)
		return ExitFailure
	}
	if v.State != StateDone || v.Result == nil {
		fmt.Fprintf(errOut, "racecheck: server: job %s failed: %s\n", v.ID, v.Error)
		return ExitFailure
	}
	io.WriteString(out, v.Result.Stdout)
	io.WriteString(errOut, v.Result.Stderr)
	if tracePath != "" {
		if v.Result.Trace == nil {
			fmt.Fprintf(errOut, "racecheck: server: job %s returned no trace\n", v.ID)
			return ExitArtifact
		}
		data, err := obs.PerfettoNodes([]*obs.SpanNode{v.Result.Trace})
		if err == nil {
			err = os.WriteFile(tracePath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: write %s: %v\n", tracePath, err)
			return ExitArtifact
		}
		fmt.Fprintf(out, "  trace written to %s\n", tracePath)
	}
	return v.Result.ExitCode
}
