//! `clarens-ca` end to end: a CA, a user credential it issues and a proxy
//! delegated from that, written as files, each chain verifying against the
//! CA's `ca.cert`.

use std::process::Command;

use clarens::testkit::now;
use clarens_pki::cert::verify_chain;
use clarens_pki::pem;

const USER: &str = "/O=test/OU=People/CN=Pat";

/// Run `clarens-ca` and return what it printed; any failure fails the test.
fn clarens_ca(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_clarens-ca"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clarens-ca {args:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn issued_and_proxy_chains_verify_against_the_ca() {
    let dir = std::env::temp_dir().join(format!("clarens-ca-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();

    clarens_ca(&["init", "--dn", "/O=test/CN=CA", "--out", &path("ca")]);
    clarens_ca(&["init", "--dn", "/O=test/CN=CA", "--out", &path("ca2")]);
    let ca = path("ca");
    let (cred, proxy) = (path("pat.cred"), path("pat-proxy.cred"));
    clarens_ca(&["issue", "--ca", &ca, "--dn", USER, "--out", &cred]);
    clarens_ca(&["proxy", "--cred", &cred, "--out", &proxy]);
    let shown = clarens_ca(&["show", "--file", &proxy]);
    assert!(shown.contains(&format!("identity: {USER}")), "{shown}");
    assert!(shown.contains("Proxy"), "{shown}");

    let roots = pem::decode_certificates(&read("ca/ca.cert")).unwrap();
    for name in ["pat.cred", "pat-proxy.cred"] {
        let credential = pem::decode_credential(&read(name)).unwrap();
        let chain: Vec<_> = std::iter::once(credential.certificate)
            .chain(credential.chain)
            .collect();
        let identity = verify_chain(&chain, &roots, now()).unwrap();
        assert_eq!(identity.to_string(), USER, "{name}");
    }

    // Every `init` mints its own key.
    let other = pem::decode_certificates(&read("ca2/ca.cert")).unwrap();
    assert_ne!(roots[0].public_key.n(), other[0].public_key.n());
    std::fs::remove_dir_all(&dir).unwrap();
}
