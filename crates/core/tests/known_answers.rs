//! Known-answer pins for the prover's scalar hashing path: the memory digest
//! and HMAC-SHA256 tag of `Measurement::compute_keyed` over the fleet
//! benchmark's image shapes (256 B and 16 KiB), and a provisioned device key,
//! which runs HMAC-DRBG. Any change to the scalar SHA-256 core must leave
//! these bytes exactly as they are.

use erasmus_core::{DeviceKey, Measurement};
use erasmus_crypto::MacAlgorithm;
use erasmus_sim::SimTime;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn compute_keyed_known_answers() {
    let keyed = MacAlgorithm::HmacSha256.with_key(&[0xab; 32]);
    let t = SimTime::from_secs(3600);
    for (len, digest, tag) in [
        (
            256,
            "8dad2eacee84767a5e63fc6d95a7c1a6b8b39fa9b36d4f6c47b0e6fe0610c95b",
            "75904f9d7976774ac06d576692ee688265fa4a2eb852f77f0012cff2a1562eff",
        ),
        (
            16 * 1024,
            "dff765a589fd8d7df3f0f69bbc220454f1ef4ea6c5c642d79879809829c0b2ba",
            "456dae4e28b5cc205370dcbfbab98ae2d2c84808fcc310c2ba5eab9e1263d320",
        ),
    ] {
        let image: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let m = Measurement::compute_keyed(&keyed, t, &image);
        assert_eq!(hex(m.digest()), digest, "{len} B digest");
        assert_eq!(hex(m.tag().as_bytes()), tag, "{len} B tag");
    }
}

#[test]
fn device_key_derive_known_answer() {
    let key = DeviceKey::derive(b"erasmus-kat", 7);
    assert_eq!(
        hex(key.as_bytes()),
        "4697b158091fc88098da6d8ef690d07ed3295e91a29012293d8c7fd11c0ad3ba"
    );
}
