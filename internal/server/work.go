//go:build !workcount

package server

import "net"

// The work hooks count the Read and Write calls each side makes on its
// connection. They do nothing outside the workcount build, in which
// work_count.go wraps the connections for the wire's work budget.
func clientConn(c net.Conn) net.Conn { return c }
func serverConn(c net.Conn) net.Conn { return c }
