package core

import (
	"errors"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// TestAbortReportsTerminalError aborts the server side of a two-path upload
// mid-transfer (and, separately, handles a peer's fast-close) and checks the
// connection ends with the abort's error. Resetting the last subflow closes
// it cleanly, which must not finish the connection as a graceful close.
func TestAbortReportsTerminalError(t *testing.T) {
	cases := []struct {
		name  string
		abort func(c *Connection)
		want  error
	}{
		{"abort", (*Connection).Abort, ErrAborted},
		{"fastclose-from-peer", (*Connection).abortFromPeer, ErrReset},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 9, netem.WiFi3GSpec())
			cfg, _ := wifi3GConfig(0)
			var server *Connection
			closedWith := errors.New("OnClosed not called")
			if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
				server = c
				c.OnReadable = func() {
					for len(c.Read(64<<10)) > 0 {
					}
				}
				c.OnClosed = func(err error) { closedWith = err }
			}); err != nil {
				t.Fatal(err)
			}
			client, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0],
				packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 32<<10)
			sent := 0
			pump := func() {
				for sent < 1<<20 {
					w := client.Write(payload)
					if w == 0 {
						return
					}
					sent += w
				}
			}
			client.OnEstablished = pump
			client.OnWritable = pump

			h.net.Sim.Schedule(300*time.Millisecond, func() {
				if server == nil {
					t.Error("no server connection 300 ms into the upload")
					return
				}
				if len(server.Subflows()) < 2 {
					t.Errorf("server has %d subflows at abort time, want 2", len(server.Subflows()))
				}
				tc.abort(server)
			})
			if err := h.net.Sim.RunUntil(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			if server == nil || !server.Closed() {
				t.Fatal("server connection not closed after abort")
			}
			if got := server.Err(); !errors.Is(got, tc.want) {
				t.Fatalf("Err() = %v, want %v", got, tc.want)
			}
			if !errors.Is(closedWith, tc.want) {
				t.Fatalf("OnClosed(%v), want %v", closedWith, tc.want)
			}
		})
	}
}
