//! E8 (Figure 11): the milestones of the design trajectory, machine-checked
//! at each step.

use svckit::floorctl::floor_control_service;
use svckit::mda::{catalog, MdaError, Trajectory, TransformPolicy};
use svckit_sweep::{check_flags, fail, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &[], &[]).unwrap_or_else(|e| fail(&e));
    outln!("E8 — milestones in the design trajectory (Figure 11)\n");

    let designed = Trajectory::start(floor_control_service())
        .with_design(catalog::floor_control_pim())
        .expect("the PIM implements the floor-control service");

    for platform in catalog::all_platforms() {
        let outcome = designed
            .realize(&platform, TransformPolicy::RecursiveServiceDesign)
            .expect("realization succeeds on all catalogued platforms");
        outln!("target {platform}:");
        for record in outcome.records() {
            outln!("  {record}");
        }
        outln!();
    }

    outln!("milestone validation also *rejects* inconsistent designs:");

    // A PIM whose logic relies on a concept its abstract platform does not
    // declare is caught at milestone 2.
    use svckit::mda::{AbstractPlatform, Connector, LogicComponent, PlatformIndependentDesign};
    use svckit::model::InteractionPattern;
    let err = PlatformIndependentDesign::new(
        "bad-pim",
        floor_control_service(),
        vec![
            LogicComponent::internal("coordinator"),
            LogicComponent::for_role("subscriber-agent", "subscriber"),
        ],
        vec![Connector::new(
            "grant",
            InteractionPattern::PublishSubscribe,
            "coordinator",
            "subscriber-agent",
        )],
        AbstractPlatform::new("ap-rr-only", [InteractionPattern::RequestResponse]),
    )
    .unwrap_err();
    outln!("  PIM using undeclared concept      -> {err}");
    assert!(matches!(err, MdaError::ConceptNotInAbstractPlatform { .. }));

    // A design for the wrong service is caught when attached to the
    // trajectory.
    let other_service = svckit::model::ServiceDefinition::builder("not-floor-control")
        .role("x", 1, 1)
        .build()
        .unwrap();
    let err = Trajectory::start(other_service)
        .with_design(catalog::floor_control_pim())
        .unwrap_err();
    outln!("  design for a different service    -> {err}");
    assert!(matches!(err, MdaError::InvalidDesign { .. }));
}
