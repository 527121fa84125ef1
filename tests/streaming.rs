//! Streaming ≡ batch equivalence (proptest).
//!
//! The warm-start invariant (DESIGN.md §11): after every accepted command,
//! the incremental scheduler's retained flow is a maximum flow over the
//! active request arcs and the full resource set, so its allocated count
//! equals a Theorem 2 batch fresh-solve on the same active set — for
//! arbitrary interleaved arrival/release sequences, on both flow backends,
//! with the transformation graph built exactly once. The retained *mapping*
//! is only allocation-count-equivalent (arrivals may re-route existing units
//! through cancellation arcs), so the mapping itself is checked for
//! validity, not pointwise equality. The command-log codec those streams
//! are replayed from never panics: arbitrary text is a command list or a
//! typed error.

use proptest::prelude::*;
use rsin_core::mapping::verify;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, MaxFlowScheduler, ScheduleScratch, Scheduler,
    StreamDecision,
};
use rsin_sim::stream::{encode_commands, parse_commands, CodecError};
use rsin_topology::builders::{generalized_cube, omega};
use rsin_topology::{CircuitState, Network};

/// A raw interleaving script: processor picks in 0..8. Whether each pick is
/// an arrival or a release is decided by the live state (idle → request,
/// active → release), so every generated sequence is a valid stream.
fn arb_script() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, 1..150)
}

fn check_stream(
    net: &Network,
    backend: IncrementalBackend,
    script: &[usize],
) -> Result<(), TestCaseError> {
    let mut inc = IncrementalScheduler::new(net, backend);
    let mut active = vec![false; net.num_processors()];
    let oracle = MaxFlowScheduler::default();
    let mut scratch = ScheduleScratch::new();
    let cs = CircuitState::new(net);
    let all: Vec<usize> = (0..net.num_resources()).collect();
    for &p in script {
        let decision = if active[p] {
            active[p] = false;
            inc.release(p)
        } else {
            active[p] = true;
            inc.request(p)
        };
        let decision = decision.expect("valid interleavings never error");
        // The decision must concern the commanded processor.
        match decision {
            StreamDecision::Allocated { processor, .. }
            | StreamDecision::Queued { processor }
            | StreamDecision::Released { processor, .. }
            | StreamDecision::Withdrawn { processor } => prop_assert_eq!(processor, p),
        }
        // Oracle: fresh batch solve over the active set on the free network.
        let requests: Vec<usize> = (0..active.len()).filter(|&q| active[q]).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &requests, &all);
        let batch = oracle
            .try_schedule_reusing(&problem, &mut scratch)
            .expect("oracle solves");
        prop_assert_eq!(
            inc.allocated_count(),
            batch.assignments.len(),
            "{:?} diverged from batch after touching p{}",
            backend,
            p
        );
        prop_assert_eq!(inc.allocated_count() + inc.queued_count(), requests.len());
        // The retained mapping decomposes into a valid, link-disjoint
        // assignment of exactly the allocated processors.
        let assignments = inc.assignments().expect("retained flow decomposes");
        prop_assert_eq!(assignments.len(), inc.allocated_count());
        if let Err(e) = verify(&assignments, &problem) {
            prop_assert!(false, "invalid retained mapping: {}", e);
        }
    }
    // The whole stream ran on one superset graph build.
    prop_assert_eq!(inc.rebuilds(), 1);
    Ok(())
}

mod codec_regression {
    //! The `R`/`F` command-log codec must reject malformed replays with a
    //! typed [`CodecError`] naming the offending line — the serve binary
    //! used to skip bad lines silently, desynchronizing replayed decision
    //! logs from the recorded stream.

    use rsin_sim::stream::{
        encode_commands, generate_commands, parse_commands, CodecError, CodecErrorKind,
    };

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        for (text, line, kind) in [
            ("R\n", 1, CodecErrorKind::MissingProcessor),
            ("R 0\nF\n", 2, CodecErrorKind::MissingProcessor),
            (
                "R zero\n",
                1,
                CodecErrorKind::BadProcessor("zero".to_string()),
            ),
            // usize::from_str would accept the sign prefix; the codec
            // insists on plain ASCII decimals.
            (
                "R 0\nF +3\n",
                2,
                CodecErrorKind::BadProcessor("+3".to_string()),
            ),
            ("R 3 4\n", 1, CodecErrorKind::TrailingTokens),
            (
                "R 0\n\n# note\nF 0 trailing\n",
                4,
                CodecErrorKind::TrailingTokens,
            ),
            ("Q 3\n", 1, CodecErrorKind::UnknownOp("Q".to_string())),
        ] {
            assert_eq!(parse_commands(text), Err(CodecError { line, kind }));
        }
    }

    /// The rendered diagnostic keeps the `line N: ...` contract the serve
    /// CLI surfaces to operators.
    #[test]
    fn codec_errors_render_the_line_number() {
        let err = parse_commands("R 0\nbogus 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unknown op \"bogus\"");
    }

    /// Well-formed logs — including generated ones with comments and blank
    /// lines — still parse, and encode/parse round-trips exactly.
    #[test]
    fn well_formed_logs_round_trip() {
        let cmds = generate_commands(8, 64, 0.7, 7, 0);
        let parsed = parse_commands(&encode_commands(&cmds)).expect("round trip");
        assert_eq!(parsed, cmds);
        assert_eq!(
            parse_commands("# header\n\n  R 5\nF 5\n").expect("comments and blanks skip"),
            parse_commands("R 5\nF 5").expect("bare log parses"),
        );
    }
}

/// Bytes drawn mostly from the codec's own alphabet (ops, digits, signs,
/// spaces, newlines), one pick in ten any byte at all.
fn arb_codec_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    const CODEC_BYTES: &[u8] = b"RFS0123456789+- \n";
    let pick = (0u8..10, 0..CODEC_BYTES.len(), 0u8..=255);
    proptest::collection::vec(pick, len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(w, i, raw)| if w < 9 { CODEC_BYTES[i] } else { raw })
            .collect()
    })
}

/// Command-log text, decoded lossily so invalid UTF-8 becomes replacement
/// characters: lines that are mostly well-formed (`R n`, `F n`, `S`, blank,
/// comment; so some whole logs parse) mixed with lines of codec bytes.
fn arb_log_text() -> impl Strategy<Value = String> {
    let line = (0u8..20, 0usize..1000, 0usize..3, arb_codec_bytes(0..12));
    proptest::collection::vec(line, 0..12).prop_map(|lines| {
        let mut bytes = Vec::new();
        for (kind, n, pad, junk) in lines {
            bytes.extend(std::iter::repeat_n(b' ', pad));
            match kind {
                0..=5 => bytes.extend(format!("R {n}").bytes()),
                6..=11 => bytes.extend(format!("F {n}").bytes()),
                12..=14 => bytes.push(b'S'),
                15 => {}
                16 => bytes.extend(b"# note"),
                _ => bytes.extend(junk),
            }
            bytes.push(b'\n');
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The codec never panics: any text parses to commands or to a typed
    /// error naming a line of the input, and every accepted log
    /// round-trips through the encoder.
    #[test]
    fn codec_never_panics_and_accepted_logs_round_trip(
        structured in arb_log_text(),
        raw in arb_codec_bytes(0..96),
    ) {
        for text in [structured, String::from_utf8_lossy(&raw).into_owned()] {
            check_codec(&text)?;
        }
    }
}

/// One codec case: `Ok` round-trips, `Err` names a line of the input.
fn check_codec(text: &str) -> Result<(), TestCaseError> {
    match parse_commands(text) {
        Ok(cmds) => prop_assert_eq!(parse_commands(&encode_commands(&cmds)), Ok(cmds)),
        Err(CodecError { line, .. }) => {
            prop_assert!((1..=text.lines().count()).contains(&line), "line {}", line);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Omega-8, both backends.
    #[test]
    fn streaming_matches_batch_on_omega(script in arb_script()) {
        let net = omega(8).unwrap();
        check_stream(&net, IncrementalBackend::MaxFlow, &script)?;
        check_stream(&net, IncrementalBackend::MinCost, &script)?;
    }

    /// Generalized cube-8, both backends.
    #[test]
    fn streaming_matches_batch_on_cube(script in arb_script()) {
        let net = generalized_cube(8).unwrap();
        check_stream(&net, IncrementalBackend::MaxFlow, &script)?;
        check_stream(&net, IncrementalBackend::MinCost, &script)?;
    }
}
