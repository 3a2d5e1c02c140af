package tlsmini

import (
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
)

// ParseIdentityPEM reads an identity stored as PEM — the container the
// golden-trace corpus checks in, so fixture traces reproduce
// byte-identically across processes (template payloads embed the
// certificate): one CERTIFICATE block and one EC PRIVATE KEY block, in
// any order.
func ParseIdentityPEM(data []byte) (*Identity, error) {
	id := &Identity{}
	for len(data) > 0 {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		switch block.Type {
		case "CERTIFICATE":
			leaf, err := x509.ParseCertificate(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("tlsmini: parse certificate: %w", err)
			}
			id.CertDER, id.Leaf = block.Bytes, leaf
		case "EC PRIVATE KEY":
			key, err := x509.ParseECPrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("tlsmini: parse key: %w", err)
			}
			id.Key = key
		}
	}
	if id.CertDER == nil || id.Key == nil {
		return nil, errors.New("tlsmini: identity PEM needs a CERTIFICATE and an EC PRIVATE KEY block")
	}
	return id, nil
}
