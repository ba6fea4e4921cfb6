package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// wireSummary is the terminal summary record of a /query stream.
type wireSummary struct {
	QueryID     uint64 `json:"query_id"`
	WallNs      int64  `json:"wall_ns"`
	ExecNs      int64  `json:"exec_ns"`
	AdmissionNs int64  `json:"admission_ns"`
	Specialized bool   `json:"specialized"`
	SpillRuns   int64  `json:"spill_runs"`
}

// wireClient sends statements to a simdbd server over at most conns
// keep-alive connections.
type wireClient struct {
	base string
	http *http.Client
}

func newWireClient(base string, conns int) *wireClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &wireClient{base: base, http: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

func (c *wireClient) close() { c.http.CloseIdleConnections() }

// query runs one statement and checks its single count row against
// want. The summary is returned for the caller's per-layer accounting.
func (c *wireClient) query(ctx context.Context, st *statement) (outcome, wireSummary) {
	var out outcome
	var sum wireSummary
	req, err := http.NewRequestWithContext(ctx, "POST", c.base+"/query", strings.NewReader(st.text))
	if err != nil {
		out.err = err.Error()
		return out, sum
	}
	req.Header.Set("Content-Type", "text/plain")
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		out.err = err.Error()
		return out, sum
	}
	out.ttfb = time.Since(t0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		out.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return out, sum
	}
	var rows []json.RawMessage
	var gotSummary bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Row     json.RawMessage `json:"row"`
			Summary *wireSummary    `json:"summary"`
			Error   *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			out.err = "malformed stream: " + err.Error()
			return out, sum
		}
		switch {
		case rec.Error != nil:
			out.err = rec.Error.Code + ": " + rec.Error.Message
			return out, sum
		case rec.Summary != nil:
			sum, gotSummary = *rec.Summary, true
		default:
			rows = append(rows, rec.Row)
		}
	}
	if err := sc.Err(); err != nil {
		out.err = err.Error()
		return out, sum
	}
	if !gotSummary || len(rows) != 1 {
		out.err = fmt.Sprintf("stream had %d rows, summary %v", len(rows), gotSummary)
		return out, sum
	}
	var got int64
	if err := json.Unmarshal(rows[0], &got); err != nil || got != st.want {
		out.wrong = true
		out.err = fmt.Sprintf("wrong answer: got %s, want %d for %s", rows[0], st.want, st.text)
		return out, sum
	}
	out.ok = true
	out.serverNs = sum.WallNs
	return out, sum
}
