//! Tier-1 spec-grammar coverage that outlived the multiplexed-instrument
//! backend: a repeated knob is a contradiction, not a typo, and dies in
//! the parser with the *named* error — also when it hides inside a
//! composite scheme's inner spec.

use fastvg::prelude::*;

/// Duplicate knobs die in the parser with the *named* error — the
/// regression the hwsim spec grammar shipped without.
#[test]
fn duplicate_spec_options_are_rejected_by_name() {
    let registry = BackendRegistry::standard();
    let duplicate = |spec: &str, want_scheme: &str, want_key: &str| {
        let err = registry
            .resolve(spec)
            .expect_err("duplicate must be rejected");
        assert!(
            matches!(
                &err,
                BackendError::DuplicateOption { scheme, key }
                    if *scheme == want_scheme && key == want_key
            ),
            "{spec}: {err}"
        );
    };
    duplicate("hwsim:nominal,xt=0.1,xt=0.9", "hwsim", "xt");
    duplicate("hwsim:aged,dead=0.05,bits=12,dead=0.01", "hwsim", "dead");
    duplicate(
        "throttled:1ms+hwsim:nominal,bits=12,bits=10",
        "hwsim",
        "bits",
    );
    duplicate(
        "throttled:1ms+hwsim:aged,dead=0.05,xt=0.1,dead=0.01",
        "hwsim",
        "dead",
    );
}
