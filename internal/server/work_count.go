//go:build workcount

package server

import (
	"net"
	"sync/atomic"
)

// Work is what the connections did since the process started, counted in
// the workcount build only: the Read and Write calls on the client's
// connections (Dial) and on the server's (its sessions). A Write is counted
// before the call and a Read when it returns, so a round trip's calls are all
// counted by the time its response is in the client's hands — the server's
// next Read, already waiting for a request, is not.
type Work struct {
	ClientReads, ClientWrites uint64
	ServerReads, ServerWrites uint64
}

var clientReads, clientWrites, serverReads, serverWrites atomic.Uint64

// countedConn is a connection that counts its Read and Write calls.
type countedConn struct {
	net.Conn
	reads, writes *atomic.Uint64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func clientConn(c net.Conn) net.Conn { return countedConn{c, &clientReads, &clientWrites} }
func serverConn(c net.Conn) net.Conn { return countedConn{c, &serverReads, &serverWrites} }

// ReadWork returns the counters; a caller measures a span of work as the
// difference of two reads.
func ReadWork() Work {
	return Work{
		ClientReads: clientReads.Load(), ClientWrites: clientWrites.Load(),
		ServerReads: serverReads.Load(), ServerWrites: serverWrites.Load(),
	}
}

// Sub returns the work done between an earlier read u and w.
func (w Work) Sub(u Work) Work {
	return Work{
		ClientReads: w.ClientReads - u.ClientReads, ClientWrites: w.ClientWrites - u.ClientWrites,
		ServerReads: w.ServerReads - u.ServerReads, ServerWrites: w.ServerWrites - u.ServerWrites,
	}
}
