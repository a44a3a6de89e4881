package main

// A minimal RESP2 client for the load generator. Commands are pre-encoded
// when the op stream is generated, so sending is a copy; replies are
// decoded into one reused value per connection, so receiving allocates
// nothing in the steady state. The generator's cost is part of
// cpu_us_per_op, and keeping it fixed here keeps it out of comparisons.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
)

type respConn struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
	v  respValue // the last reply
}

// respValue is one decoded reply. bulk and elems are reused between
// replies.
type respValue struct {
	kind  byte // '+', '-', ':', '$' or '*'
	null  bool
	n     int64
	bulk  []byte
	elems []respValue
}

var errBadReply = errors.New("malformed RESP reply")

func dialRESP(addr string) (*respConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &respConn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (c *respConn) line() ([]byte, error) {
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(b) < 3 || b[len(b)-2] != '\r' {
		return nil, errBadReply
	}
	return b[:len(b)-2], nil
}

// recv decodes the next reply into c.v.
func (c *respConn) recv() (*respValue, error) {
	return &c.v, c.decode(&c.v, 0)
}

func (c *respConn) decode(v *respValue, depth int) error {
	b, err := c.line()
	if err != nil {
		return err
	}
	v.kind, v.null, v.n, v.bulk = b[0], false, 0, v.bulk[:0]
	switch v.kind {
	case '+', '-':
		v.bulk = append(v.bulk, b[1:]...)
		return nil
	case ':', '$', '*':
		n, err := strconv.ParseInt(string(b[1:]), 10, 64)
		if err != nil {
			return errBadReply
		}
		v.n = n
	default:
		return fmt.Errorf("%w: type byte %q", errBadReply, v.kind)
	}
	switch {
	case v.kind == ':':
		return nil
	case v.n < 0:
		v.null = true
		return nil
	case v.kind == '$':
		need := int(v.n) + 2
		for len(v.bulk) < need {
			chunk, err := c.r.Peek(min(need-len(v.bulk), c.r.Size()))
			if err != nil {
				return err
			}
			v.bulk = append(v.bulk, chunk...)
			c.r.Discard(len(chunk))
		}
		if v.bulk[need-2] != '\r' || v.bulk[need-1] != '\n' {
			return errBadReply
		}
		v.bulk = v.bulk[:need-2]
		return nil
	}
	if depth > 1 {
		return errBadReply
	}
	for len(v.elems) < int(v.n) {
		v.elems = append(v.elems, respValue{})
	}
	for i := range int(v.n) {
		if err := c.decode(&v.elems[i], depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (c *respConn) close() error { return c.nc.Close() }

// appendCommand appends the RESP encoding of args to dst.
func appendCommand(dst []byte, args ...[]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}
