//! The vendored `serde_json` reader on hostile and adversarial text:
//! it never panics on a fault plan, rejects a fault the plan format
//! does not name, reads back every string its writer wrote, and reads
//! a long string in time linear in its length.

use alphawan_system::chaos::{FaultPlan, FaultSpec};
use alphawan_system::gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Pieces a string reader can get wrong: quotes, backslashes, control
/// characters, DEL, two-, three- and four-byte UTF-8, and escapes
/// right next to a multi-byte character.
const STRING_ATOMS: &[&str] = &[
    "a", " ", "/", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}", "é", "€",
    "𝄞", "\"é", "é\\", "\\€", "\n𝄞", "\u{1}é", "\\u00e9", "\\\"",
];

fn adversarial_string() -> impl Strategy<Value = String> {
    collection::vec(0..STRING_ATOMS.len(), 0..16)
        .prop_map(|ix| ix.into_iter().map(|i| STRING_ATOMS[i]).collect())
}

/// Tokens of a fault plan's JSON and of broken ones: structure, bad
/// escapes, numbers out of range, cut keywords, the plan's keys.
const PLAN_ATOMS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\u0",
    "\\ud8",
    "\\ud800",
    "\\x",
    " ",
    "\n",
    "0",
    "7",
    "-",
    ".",
    "e",
    "1e999",
    "18446744073709551616",
    "-1",
    "0.5",
    "null",
    "true",
    "fals",
    "\"seed\"",
    "\"faults\"",
    "\"GatewayCrash\"",
    "\"BackhaulLoss\"",
    "\"MasterPartition\"",
    "\"gateway\"",
    "\"start_us\"",
    "\"end_us\"",
    "\"probability\"",
    "é",
    "𝄞",
    "\u{0}",
];

fn plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        faults: vec![
            FaultSpec::GatewayCrash {
                gateway: 1,
                start_us: 1_000,
                end_us: u64::MAX,
            },
            FaultSpec::DecoderLockup {
                gateway: 0,
                decoders: 4,
                start_us: 40,
                end_us: 500,
            },
            FaultSpec::BackhaulLoss {
                probability: 0.25,
                start_us: 0,
                end_us: 9,
            },
        ],
    }
}

proptest! {
    /// Arbitrary token soup never panics the plan reader.
    fn fault_plan_from_json_never_panics_on_token_soup(
        ix in collection::vec(0..PLAN_ATOMS.len(), 0..48),
    ) {
        let text: String = ix.into_iter().map(|i| PLAN_ATOMS[i]).collect();
        let _ = FaultPlan::from_json(&text);
    }

    /// A valid plan with a span cut out and a token spliced in — text
    /// that gets deep into the reader before it goes wrong — never
    /// panics it either.
    fn fault_plan_from_json_never_panics_on_spliced_plans(
        (a, b) in (0usize..1_000, 0usize..1_000),
        atom in 0..PLAN_ATOMS.len(),
    ) {
        let chars: Vec<char> = plan().to_json().chars().collect();
        let (cut, to) = (a % chars.len(), b % chars.len());
        let (cut, to) = (cut.min(to), cut.max(to));
        let mut text: String = chars[..cut].iter().collect();
        text.push_str(PLAN_ATOMS[atom]);
        text.extend(&chars[to..]);
        let _ = FaultPlan::from_json(&text);
    }

    /// The reader returns exactly the strings the writer wrote.
    fn strings_roundtrip_through_the_writer(v in collection::vec(adversarial_string(), 0..8)) {
        let json = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(serde_json::from_str::<Vec<String>>(&json).unwrap(), v);
    }
}

#[test]
fn the_spliced_plan_fuzzer_starts_from_a_plan_that_reads() {
    assert_eq!(FaultPlan::from_json(&plan().to_json()).unwrap(), plan());
}

/// The Master's control-plane faults left the plan format with the TCP
/// proxy that injected them. A plan naming one is an error (which
/// `chaos_demo` reports as an invalid plan), whether the fault stands
/// alone or among faults that still read.
#[test]
fn a_plan_naming_a_retired_master_fault_is_an_error() {
    let valid = plan().to_json();
    assert!(valid.starts_with(r#"{"seed":7,"faults":["#) && valid.ends_with("]}"));
    for fault in [
        r#"{"MasterPartition":{"start_us":10,"end_us":20}}"#,
        r#"{"MasterSlowResponse":{"extra_us":500000,"start_us":0,"end_us":30}}"#,
        r#"{"MasterPartition":{}}"#,
        r#""MasterPartition""#,
    ] {
        let alone = format!(r#"{{"seed":1,"faults":[{fault}]}}"#);
        let first = valid.replacen(r#""faults":["#, &format!(r#""faults":[{fault},"#), 1);
        let last = format!("{},{fault}]}}", &valid[..valid.len() - 2]);
        for text in [alone, first, last] {
            assert!(FaultPlan::from_json(&text).is_err(), "read: {text}");
        }
    }
}

/// A reader that rescans the rest of its input for every plain
/// character takes about a second on one 256 KiB string (0.97 s on a
/// 2-core Xeon, debug or release alike); a linear one takes 3 ms in a
/// debug build.
#[test]
fn a_256_kib_data_string_decodes_in_linear_time() {
    let data = "QUJD".repeat(64 * 1024);
    let rx = RxPacket {
        tmst: 1,
        freq: 916.9,
        chan: 0,
        rfch: 0,
        stat: 1,
        modu: "LORA".into(),
        datr: "SF7BW125".into(),
        codr: "4/5".into(),
        rssi: -97,
        lsnr: 8.5,
        size: 192 * 1024,
        data: data.into(),
        trce: 3,
    };
    let sent = Datagram::PushData {
        token: 1,
        eui: GatewayEui(7),
        rxpk: vec![rx],
    };
    let wire = sent.encode();
    let t0 = Instant::now();
    let got = Datagram::decode(&wire);
    let took = t0.elapsed();
    assert_eq!(got, Some(sent));
    assert!(
        took < Duration::from_millis(250),
        "decoding a 256 KiB string took {took:?}"
    );
}
