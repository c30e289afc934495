package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
)

// spanHeader carries "request.span" from each layer to the next in a
// traced run, so the spans of one request can be linked.
const spanHeader = "X-Bench-Span"

// httpConn is one keep-alive HTTP/1.1 client connection, written
// against the wire so that the client costs a few microseconds and one
// goroutine: with net/http's client in the same process, a third of the
// CPU the benchmark reads would be its own.
type httpConn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte
	// closing is set when the server announced it will close.
	closing bool
}

// dialHTTP opens a connection to addr, reading through br (reset, so
// one buffer serves every connection a client goroutine ever opens).
func dialHTTP(addr string, br *bufio.Reader) (*httpConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Close with a reset: a connection-per-page workload would
	// otherwise leave more sockets in TIME_WAIT than loopback has
	// ports. Every response is read to its last byte before a close,
	// so nothing is lost.
	if tc, ok := nc.(*net.TCPConn); ok {
		if err := tc.SetLinger(0); err != nil {
			nc.Close()
			return nil, err
		}
	}
	br.Reset(nc)
	return &httpConn{nc: nc, br: br}, nil
}

func (c *httpConn) close() { c.nc.Close() }

var (
	contentLength = []byte("content-length:")
	connClose     = []byte("connection: close")
)

// get sends one GET and reads the response to its last byte, returning
// the status and the body length. span, when non-empty, is sent as the
// spanHeader.
func (c *httpConn) get(path, span string) (status int, body int64, err error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n"...)
	if span != "" {
		c.req = append(c.req, spanHeader+": "...)
		c.req = append(c.req, span...)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		return 0, 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, 0, fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	body = -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if len(line) >= len(contentLength) && bytes.EqualFold(line[:len(contentLength)], contentLength) {
			body, err = strconv.ParseInt(string(bytes.TrimSpace(line[len(contentLength):])), 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad Content-Length %q", line)
			}
		} else if bytes.EqualFold(line, connClose) {
			c.closing = true
		}
	}
	if body < 0 {
		return 0, 0, errors.New("response without Content-Length")
	}
	if _, err := c.br.Discard(int(body)); err != nil {
		return 0, 0, err
	}
	return status, body, nil
}
