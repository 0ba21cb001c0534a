package api

import (
	"net/http"

	"pds2/internal/contract"
	"pds2/internal/vm"
)

// handleDeployContract serves POST /v1/contracts: a pre-signed
// deployPolicy transaction binding a compiled policy-program artifact
// to a dataset. The artifact must decode as a pds2/bytecode/v1
// container and its bytecode must re-verify against the embedded
// source — malformed or forged artifacts are rejected here with a
// client error instead of burning gas on a revert. Ownership is
// enforced by the registry contract at apply time.
func (s *Server) handleDeployContract(w http.ResponseWriter, r *http.Request) {
	if deadlineExceeded(w, r) {
		return
	}
	tx, args, ok := s.registryCall(w, r, "deployPolicy")
	if !ok {
		return
	}
	d := contract.NewDecoder(args)
	if d.Digest(); d.Err() != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad dataset id: %v", d.Err())
		return
	}
	artifact := d.Blob()
	if err := d.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad artifact blob: %v", err)
		return
	}
	mod, err := vm.Decode(artifact)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad artifact: %v", err)
		return
	}
	if err := vm.VerifySource(mod); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad artifact: %v", err)
		return
	}
	s.admitTx(w, tx)
}
