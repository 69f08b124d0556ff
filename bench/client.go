package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the load generator's one connection: a closed loop, one client,
// one keep-alive connection. The next request is sent only after the
// previous reply has been read to EOF, as a pipeline or a poller would.
type client struct {
	base string
	http *http.Client
	tr   *http.Transport
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, tr: tr, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte, ctype string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// timed is do with the request's wall time, first byte sent to last byte
// read.
func (c *client) timed(method, path string, body []byte, ctype string) (time.Duration, int, []byte, error) {
	start := time.Now()
	code, data, err := c.do(method, path, body, ctype)
	return time.Since(start), code, data, err
}

func (c *client) closeIdle() { c.tr.CloseIdleConnections() }

// healthDoc is the part of GET /v1/health the harness reads.
type healthDoc struct {
	Epoch        uint64 `json:"epoch"`
	Tuples       int    `json:"tuples"`
	NextID       int    `json:"next_id"`
	RulesVersion string `json:"rules_version"`
	Compacting   bool   `json:"compacting"`
}

func (c *client) health() (healthDoc, error) {
	var h healthDoc
	code, body, err := c.do("GET", "/v1/health", nil, "")
	if err != nil {
		return h, err
	}
	if code != 200 {
		return h, fmt.Errorf("GET /v1/health: status %d", code)
	}
	return h, json.Unmarshal(body, &h)
}
