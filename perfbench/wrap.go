package main

import (
	"bytes"
	"context"
	"net"
	"path"
	"strings"
	"sync"
	"time"

	"fivm/internal/wal"
)

// timingFS is a wal.VFS that times and counts the WAL's file operations:
// segment writes and syncs become spans, checkpoints become one span from
// creating the temporary file to publishing it by rename, and bytes are
// counted per file kind.
type timingFS struct {
	inner wal.VFS
	tr    *tracer

	mu        sync.Mutex
	ckptStart time.Time
}

func (f *timingFS) MkdirAll(dir string) error            { return f.inner.MkdirAll(dir) }
func (f *timingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *timingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *timingFS) Truncate(name string, size int64) error {
	return f.inner.Truncate(name, size)
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	b, err := f.inner.ReadFile(name)
	f.tr.count("wal.read_bytes", float64(len(b)))
	return b, err
}

func (f *timingFS) Create(name string) (wal.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	kind := "other"
	switch base := path.Base(name); {
	case strings.HasPrefix(base, "wal-"):
		kind = "segment"
	case strings.HasPrefix(base, "ckpt"):
		kind = "checkpoint"
		f.mu.Lock()
		f.ckptStart = time.Now()
		f.mu.Unlock()
	}
	return &timingFile{File: file, tr: f.tr, kind: kind}, nil
}

func (f *timingFS) Rename(oldname, newname string) error {
	err := f.inner.Rename(oldname, newname)
	if err == nil && strings.HasPrefix(path.Base(newname), "ckpt-") {
		f.mu.Lock()
		start := f.ckptStart
		f.mu.Unlock()
		f.tr.record("wal.checkpoint", 0, start, time.Now(), false)
	}
	return err
}

type timingFile struct {
	wal.File
	tr   *tracer
	kind string
}

func (t *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.File.Write(p)
	if t.kind == "segment" {
		t.tr.record("wal.write", 0, start, time.Now(), false)
	}
	t.tr.count("wal."+t.kind+"_bytes", float64(n))
	return n, err
}

func (t *timingFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	if t.kind == "segment" {
		t.tr.record("wal.sync", 0, start, time.Now(), false)
	}
	return err
}

// countingDial dials like net.Dialer and counts the bytes and Read calls on
// the returned connection under replica.read_bytes and replica.reads.
func countingDial(tr *tracer) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, tr: tr}, nil
	}
}

type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.count("replica.reads", 1)
	c.tr.count("replica.read_bytes", float64(n))
	return n, err
}

// residenceListener wraps the HTTP server's listener and records, per
// request, a span "netserve.<route>" from the first request byte the server
// reads to the last response byte it writes. A request ends when the next
// one begins on its connection, or when the connection closes.
type residenceListener struct {
	net.Listener
	tr *tracer
}

func (l *residenceListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &residenceConn{Conn: c, tr: l.tr}, nil
}

type residenceConn struct {
	net.Conn
	tr *tracer

	mu        sync.Mutex
	inReq     bool
	responded bool
	start     time.Time
	lastWrite time.Time
	head      []byte // leading request bytes, enough to name the route
	reqBytes  int
	respBytes int
}

func (c *residenceConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		if c.responded {
			c.finish()
		}
		if !c.inReq {
			c.inReq, c.start = true, now
		}
		if len(c.head) < 64 {
			c.head = append(c.head, p[:min(n, 64-len(c.head))]...)
		}
		c.reqBytes += n
		c.mu.Unlock()
	}
	return n, err
}

func (c *residenceConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	c.mu.Lock()
	if c.inReq {
		c.responded, c.lastWrite = true, now
		c.respBytes += n
	}
	c.mu.Unlock()
	return n, err
}

func (c *residenceConn) Close() error {
	c.mu.Lock()
	if c.responded {
		c.finish()
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// finish records the completed request; c.mu is held.
func (c *residenceConn) finish() {
	route := routeOf(c.head)
	c.tr.record("netserve."+route, 0, c.start, c.lastWrite, false)
	c.tr.count("netserve."+route+".req_bytes", float64(c.reqBytes))
	c.tr.count("netserve."+route+".resp_bytes", float64(c.respBytes))
	c.inReq, c.responded = false, false
	c.head, c.reqBytes, c.respBytes = c.head[:0], 0, 0
}

// routeOf names a request by its request line.
func routeOf(head []byte) string {
	line, _, _ := bytes.Cut(head, []byte(" HTTP/"))
	switch {
	case bytes.HasPrefix(line, []byte("POST /apply")):
		return "apply"
	case bytes.HasPrefix(line, []byte("GET /view/")) && bytes.Contains(line, []byte("/lookup")):
		return "lookup"
	case bytes.HasPrefix(line, []byte("GET /view/")) && bytes.Contains(line, []byte("/scan")):
		return "scan"
	}
	return "other"
}
