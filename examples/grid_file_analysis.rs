//! Distributed physics analysis scenario (the paper's motivating
//! workload): a Tier-2 site serves CMS event files; access is organized
//! through a virtual organization, and collaborators read remote data via
//! `file.read` and streamed HTTP GET — with ACLs keeping outsiders away
//! from the collaboration's datasets.
//!
//! ```sh
//! cargo run --example grid_file_analysis
//! ```

use clarens::acl::{Acl, FileAcl, Order};
use clarens::testkit::TestGrid;
use clarens_wire::Value;

fn main() {
    let grid = TestGrid::start();
    println!("Tier-2 Clarens server up at http://{}\n", grid.addr());

    // The site hosts CMS detector event files plus some public docs.
    let event_data: Vec<u8> = (0..200_000u32).flat_map(|i| i.to_le_bytes()).collect();
    grid.write_file("/data/cms/run2005A/events-001.dat", &event_data);
    grid.write_file("/data/cms/run2005A/events-002.dat", &event_data[..400_000]);
    grid.write_file("/public/README.txt", b"public documentation");

    // --- VO setup (paper SS2.1): the site admin creates the cms group and
    // admits everyone under the collaboration's CA People branch.
    let mut admin = grid.logged_in_client(&grid.admin);
    admin
        .call("vo.create_group", vec![Value::from("cms")])
        .unwrap();
    admin
        .call(
            "vo.add_member",
            vec![
                Value::from("cms"),
                Value::from("/O=doesciencegrid.org/OU=People"),
            ],
        )
        .unwrap();
    println!("VO group 'cms' created; members: /O=doesciencegrid.org/OU=People (DN prefix)");

    // --- ACL setup (paper SS2.2/SS2.3): /data/cms readable by the cms group
    // only; /public readable by anyone authenticated.
    // /data/cms: `deny,allow` with a deny-everyone entry plus an allow for
    // the cms group — members win the same-level conflict, everyone else is
    // explicitly denied at this level (so the permissive grant at "/" never
    // applies; see paper §2.2's lowest-level-first evaluation).
    let cms_only = Acl {
        order: Order::DenyAllow,
        allow_groups: vec!["cms".into()],
        deny_dns: vec!["*".into()],
        ..Default::default()
    };
    let core = grid.core();
    core.acl
        .set_file_acl(
            "/data/cms",
            &FileAcl {
                read: cms_only.clone(),
                write: cms_only,
            },
        )
        .unwrap();
    core.acl
        .set_file_acl(
            "/",
            &FileAcl {
                read: Acl::allow_dn("*"),
                write: Acl::default(),
            },
        )
        .unwrap();
    println!("File ACLs installed: /data/cms -> group cms only; / -> read for all\n");

    // --- A physicist (uma, under the People branch) analyses the data.
    let mut physicist = grid.logged_in_client(&grid.user);
    println!("Physicist {} logs in.", grid.user.certificate.subject);

    let listing = physicist
        .call("file.ls", vec![Value::from("/data/cms/run2005A")])
        .unwrap();
    println!("file.ls(/data/cms/run2005A):");
    for entry in listing.as_array().unwrap() {
        println!(
            "  {:<18} {:>9} bytes",
            entry.get("name").unwrap().as_str().unwrap(),
            entry.get("size").unwrap().as_int().unwrap()
        );
    }

    // Chunked analysis read: pull the first 64 KiB in 16 KiB chunks and
    // "reconstruct" a histogram (here: a checksum per chunk).
    println!("\nReading events in 16 KiB chunks via file.read:");
    let mut offset = 0i64;
    for chunk_no in 0..4 {
        let chunk = physicist
            .file_read("/data/cms/run2005A/events-001.dat", offset, 16 * 1024)
            .unwrap();
        let sum: u64 = chunk.iter().map(|&b| b as u64).sum();
        println!("  chunk {chunk_no}: {} bytes, byte-sum {sum}", chunk.len());
        offset += chunk.len() as i64;
    }

    // Integrity check with file.md5 (paper SS2.3) against a local hash.
    let remote_md5 = physicist
        .call(
            "file.md5",
            vec![Value::from("/data/cms/run2005A/events-001.dat")],
        )
        .unwrap();
    let local_md5 = clarens_pki::md5::md5_hex(&event_data);
    println!(
        "\nfile.md5 = {} (matches local: {})",
        remote_md5.as_str().unwrap(),
        remote_md5.as_str().unwrap() == local_md5
    );

    // Bulk download over the streaming HTTP GET path.
    let t0 = std::time::Instant::now();
    let downloaded = physicist
        .http_get_file("/data/cms/run2005A/events-001.dat")
        .unwrap();
    let dt = t0.elapsed();
    println!(
        "HTTP GET download: {} bytes in {:.1} ms ({:.1} MiB/s)",
        downloaded.len(),
        dt.as_secs_f64() * 1e3,
        downloaded.len() as f64 / dt.as_secs_f64() / (1024.0 * 1024.0)
    );
    assert_eq!(downloaded, event_data);

    // --- An outsider (a service certificate, outside the People branch)
    // is kept out of the collaboration data but can read /public.
    let mut outsider = grid.logged_in_client(&grid.server_credential);
    println!(
        "\nOutsider {} logs in.",
        grid.server_credential.certificate.subject
    );
    match outsider.file_read("/data/cms/run2005A/events-001.dat", 0, 16) {
        Err(e) => println!("  /data/cms read denied as expected: {e}"),
        Ok(_) => panic!("ACL failed to protect collaboration data!"),
    }
    let public = outsider.file_read("/public/README.txt", 0, 1024).unwrap();
    println!(
        "  /public read allowed: {:?}",
        String::from_utf8_lossy(&public)
    );

    grid.cleanup();
    println!("\nDone.");
}
