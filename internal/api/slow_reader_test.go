package api

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// TestSlowReaderDoesNotPinSeal pins that no handler writes to the socket
// while holding the market mutex: a client requests a block far larger
// than the kernel will buffer and then stops reading, so the server's
// write of that response blocks indefinitely — and a concurrent seal must
// still go through, because the block was taken under the lock and
// encoded after releasing it.
func TestSlowReaderDoesNotPinSeal(t *testing.T) {
	user := identity.New("user", crypto.NewDRBGFromUint64(1, "slow-reader"))
	sink := identity.New("sink", crypto.NewDRBGFromUint64(2, "slow-reader"))
	m, err := market.New(market.Config{
		Seed:          1,
		GenesisAlloc:  map[identity.Address]uint64{user.Address(): 1_000_000},
		BlockGasLimit: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One block of 16 × 1 MiB transactions is ~22 MB of JSON, several
	// times what the TCP send and receive buffers absorb between them.
	payload := make([]byte, ledger.MaxTxDataBytes)
	for i := 0; i < 16; i++ {
		if err := m.Submit(m.SignedTx(user, sink.Address(), 0, payload)); err != nil {
			t.Fatal(err)
		}
	}
	big, err := m.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Txs) != 16 {
		t.Fatalf("large block holds %d txs, want 16", len(big.Txs))
	}
	srv := httptest.NewServer(NewServer(m, true))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // unblocks the server's write so srv.Close can return
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET /v1/blocks/%d HTTP/1.1\r\nHost: pds2\r\n\r\n", big.Header.Height); err != nil {
		t.Fatal(err)
	}
	// The first response byte means the handler has the block and is
	// writing it; from here on this client never reads again.
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatalf("no response started: %v", err)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(srv.URL+"/v1/blocks/seal", "application/json", nil)
	if err != nil {
		t.Fatalf("seal blocked behind a client that stopped reading: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal status %d", resp.StatusCode)
	}
}
